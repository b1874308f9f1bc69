package core

import (
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/uml"
)

// testFixture builds the minimal standard content the core tests need:
// one business library with PRIM/CDT/ENUM/QDT/CC/BIE libraries and the
// Person/Address example of the paper's Figure 1.
type testFixture struct {
	model   *Model
	biz     *BusinessLibrary
	primLib *Library
	cdtLib  *Library
	qdtLib  *Library
	enumLib *Library
	ccLib   *Library
	bieLib  *Library

	str     *PRIM
	text    *CDT
	date    *CDT
	code    *CDT
	person  *ACC
	address *ACC
}

func mustPrim(t *testing.T, l *Library, name string) *PRIM {
	t.Helper()
	p, err := l.AddPRIM(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustCDT(t *testing.T, l *Library, name string, content ComponentType) *CDT {
	t.Helper()
	d, err := l.AddCDT(name, Content(content))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newFixture(t *testing.T) *testFixture {
	t.Helper()
	f := &testFixture{}
	f.model = NewModel("Test")
	f.biz = f.model.AddBusinessLibrary("EasyBiz")
	f.primLib = f.biz.AddLibrary(KindPRIMLibrary, "PrimitiveTypes", "urn:test:prim")
	f.cdtLib = f.biz.AddLibrary(KindCDTLibrary, "CoreDataTypes", "urn:test:cdt")
	f.qdtLib = f.biz.AddLibrary(KindQDTLibrary, "QualifiedDataTypes", "urn:test:qdt")
	f.enumLib = f.biz.AddLibrary(KindENUMLibrary, "EnumerationTypes", "urn:test:enum")
	f.ccLib = f.biz.AddLibrary(KindCCLibrary, "CandidateCoreComponents", "urn:test:cc")
	f.bieLib = f.biz.AddLibrary(KindBIELibrary, "CommonAggregates", "urn:test:bie")

	f.str = mustPrim(t, f.primLib, "String")
	f.text = mustCDT(t, f.cdtLib, "Text", f.str)
	f.date = mustCDT(t, f.cdtLib, "Date", f.str)
	f.code = mustCDT(t, f.cdtLib, "Code", f.str)
	f.code.AddSup("CodeListAgName", f.str, uml.One).
		AddSup("CodeListName", f.str, uml.One).
		AddSup("CodeListSchemeURI", f.str, uml.One).
		AddSup("LanguageIdentifier", f.str, uml.Optional)

	var err error
	f.person, err = f.ccLib.AddACC("Person")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.person.AddBCC("DateofBirth", f.date, uml.One); err != nil {
		t.Fatal(err)
	}
	if _, err := f.person.AddBCC("FirstName", f.text, uml.One); err != nil {
		t.Fatal(err)
	}
	f.address, err = f.ccLib.AddACC("Address")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"PostalCode", "Street"} {
		if _, err := f.address.AddBCC(n, f.text, uml.One); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.address.AddBCC("Country", f.code, uml.One); err != nil {
		t.Fatal(err)
	}
	if _, err := f.person.AddASCC("Private", f.address, uml.One, uml.AggregationComposite); err != nil {
		t.Fatal(err)
	}
	if _, err := f.person.AddASCC("Work", f.address, uml.One, uml.AggregationComposite); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLibraryKindString(t *testing.T) {
	for k := KindCCLibrary; k <= KindDOCLibrary; k++ {
		s := k.String()
		back, err := ParseLibraryKind(s)
		if err != nil || back != k {
			t.Errorf("round trip %v: %v %v", k, back, err)
		}
	}
	if !strings.Contains(LibraryKind(99).String(), "99") {
		t.Error("unknown kind should include numeric value")
	}
	if _, err := ParseLibraryKind("NopeLibrary"); err == nil {
		t.Error("expected error for unknown kind name")
	}
}

func TestContainmentRules(t *testing.T) {
	f := newFixture(t)

	// ACCs only in CCLibraries.
	if _, err := f.bieLib.AddACC("X"); err == nil {
		t.Error("ACC in BIELibrary should fail")
	}
	// ABIEs only in BIE/DOC libraries.
	if _, err := f.ccLib.AddABIE("X", f.person); err == nil {
		t.Error("ABIE in CCLibrary should fail")
	}
	// CDTs only in CDT libraries.
	if _, err := f.bieLib.AddCDT("X", Content(f.str)); err == nil {
		t.Error("CDT in BIELibrary should fail")
	}
	// QDTs only in QDT libraries.
	if _, err := f.cdtLib.AddQDT("X", f.code, Content(f.str)); err == nil {
		t.Error("QDT in CDTLibrary should fail")
	}
	// ENUMs only in ENUM libraries.
	if _, err := f.ccLib.AddENUM("X"); err == nil {
		t.Error("ENUM in CCLibrary should fail")
	}
	// PRIMs only in PRIM libraries.
	if _, err := f.cdtLib.AddPRIM("X"); err == nil {
		t.Error("PRIM in CDTLibrary should fail")
	}

	// DOCLibrary may define ABIEs (HoardingPermit does).
	docLib := f.biz.AddLibrary(KindDOCLibrary, "Doc", "urn:test:doc")
	if _, err := docLib.AddABIE("Doc_Person", f.person); err != nil {
		t.Errorf("ABIE in DOCLibrary: %v", err)
	}
}

func TestABIERequiresBasedOn(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bieLib.AddABIE("X", nil); err == nil {
		t.Error("ABIE without basedOn must fail")
	}
}

func TestQDTRequiresBasedOn(t *testing.T) {
	f := newFixture(t)
	if _, err := f.qdtLib.AddQDT("X", nil, Content(f.str)); err == nil {
		t.Error("QDT without basedOn must fail")
	}
}

func TestModelFinders(t *testing.T) {
	f := newFixture(t)
	if f.model.FindLibrary("CommonAggregates") != f.bieLib {
		t.Error("FindLibrary failed")
	}
	if f.model.FindLibrary("Nope") != nil {
		t.Error("FindLibrary should return nil")
	}
	if f.model.FindACC("Person") != f.person {
		t.Error("FindACC failed")
	}
	if f.model.FindACC("Nope") != nil {
		t.Error("FindACC should return nil")
	}
	if f.model.FindCDT("Code") != f.code {
		t.Error("FindCDT failed")
	}
	if f.model.FindPRIM("String") != f.str {
		t.Error("FindPRIM failed")
	}
	if f.model.FindPRIM("Float128") != nil {
		t.Error("FindPRIM should return nil")
	}
	if f.model.FindABIE("X") != nil || f.model.FindQDT("X") != nil || f.model.FindENUM("X") != nil {
		t.Error("missing entities should return nil")
	}
	if got := len(f.model.Libraries()); got != 6 {
		t.Errorf("Libraries() = %d, want 6", got)
	}
	if f.ccLib.FindACC("Address") != f.address {
		t.Error("Library.FindACC failed")
	}
	if f.ccLib.FindACC("Nope") != nil {
		t.Error("Library.FindACC should return nil")
	}
	if f.ccLib.Business() != f.biz || f.ccLib.Model() != f.model || f.biz.Model() != f.model {
		t.Error("ownership links broken")
	}
	detached := &Library{Kind: KindCCLibrary, Name: "Detached"}
	if detached.Model() != nil {
		t.Error("detached library should have nil model")
	}
}

func TestACCDuplicateMembers(t *testing.T) {
	f := newFixture(t)
	if _, err := f.person.AddBCC("FirstName", f.text, uml.One); err == nil {
		t.Error("duplicate BCC should fail")
	}
	if _, err := f.person.AddASCC("Private", f.address, uml.One, uml.AggregationComposite); err == nil {
		t.Error("duplicate ASCC should fail")
	}
	// Same role, different target is allowed (two Included ASBIEs in the
	// paper's Figure 4).
	other, err := f.ccLib.AddACC("Attachment")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.person.AddASCC("Private", other, uml.One, uml.AggregationComposite); err != nil {
		t.Errorf("same role, different target should be allowed: %v", err)
	}
}

func TestBCCRequiresCDT(t *testing.T) {
	f := newFixture(t)
	if _, err := f.person.AddBCC("Broken", nil, uml.One); err == nil {
		t.Error("BCC without CDT must fail")
	}
	if _, err := f.person.AddASCC("Broken", nil, uml.One, uml.AggregationNone); err == nil {
		t.Error("ASCC without target must fail")
	}
}

func TestENUM(t *testing.T) {
	f := newFixture(t)
	e, err := f.enumLib.AddENUM("CountryType_Code")
	if err != nil {
		t.Fatal(err)
	}
	e.AddLiteral("USA", "United States of America").
		AddLiteral("AUT", "Austria").
		AddLiteral("AUS", "Australia")
	if got := e.LiteralNames(); len(got) != 3 || got[1] != "AUT" {
		t.Errorf("LiteralNames = %v", got)
	}
	if !e.HasLiteral("AUT") || e.HasLiteral("DEU") {
		t.Error("HasLiteral wrong")
	}
	if e.Library() != f.enumLib {
		t.Error("ENUM library link broken")
	}
	if f.model.FindENUM("CountryType_Code") != e {
		t.Error("FindENUM failed")
	}
}

func TestElementCount(t *testing.T) {
	f := newFixture(t)
	if got := f.cdtLib.ElementCount(); got != 3 {
		t.Errorf("cdtLib.ElementCount = %d, want 3", got)
	}
	if got := f.ccLib.ElementCount(); got != 2 {
		t.Errorf("ccLib.ElementCount = %d, want 2", got)
	}
}

func TestCDTSupLookup(t *testing.T) {
	f := newFixture(t)
	if s := f.code.Sup("CodeListName"); s == nil || s.Card != uml.One {
		t.Errorf("Sup(CodeListName) = %v", s)
	}
	if s := f.code.Sup("LanguageIdentifier"); s == nil || s.Card != uml.Optional {
		t.Errorf("Sup(LanguageIdentifier) = %v", s)
	}
	if f.code.Sup("Nope") != nil {
		t.Error("missing SUP should be nil")
	}
}

func TestOwnershipAccessors(t *testing.T) {
	f := newFixture(t)
	bcc := f.person.FindBCC("FirstName")
	if bcc.Owner() != f.person {
		t.Error("BCC.Owner broken")
	}
	ascc := f.person.FindASCC("Work", "Address")
	if ascc == nil || ascc.Owner() != f.person {
		t.Error("ASCC.Owner broken")
	}
	if f.person.FindASCC("Work", "Attachment") != nil {
		t.Error("FindASCC must match target too")
	}
	if f.person.Library() != f.ccLib {
		t.Error("ACC.Library broken")
	}
	if f.code.DataTypeLibrary() != f.cdtLib {
		t.Error("CDT.DataTypeLibrary broken")
	}
	if f.str.Library() != f.primLib {
		t.Error("PRIM.Library broken")
	}
}

// TestDENWords pins the word splitting of dictionary entry names.
func TestDENWords(t *testing.T) {
	cases := []struct {
		suffix, want string
		terms        []string
	}{
		{". Details", "US Person. Details", []string{"US_Person"}},
		{". Type", "ISO3166 Code. Type", []string{"ISO3166Code"}},
		{"", "Äpfel Baum. Dateof Birth. Date", []string{"ÄpfelBaum", "DateofBirth", "Date"}},
		{"", "Code List Ag Name. URI. A B", []string{"CodeListAgName", "URI", "A_B"}},
		{". Details", ". Details", []string{""}},
	}
	for _, c := range cases {
		if got := den(c.suffix, c.terms...); got != c.want {
			t.Errorf("den(%q, %q) = %q, want %q", c.suffix, c.terms, got, c.want)
		}
	}
}
