package gen

import (
	"errors"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/xsd"
)

func buildFixture(t *testing.T) *fixture.HoardingPermit {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func generateDoc(t *testing.T, opts Options) (*fixture.HoardingPermit, *Result) {
	t.Helper()
	f := buildFixture(t)
	res, err := GenerateDocument(f.DOCLib, "HoardingPermit", opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// TestFigure6DOCLibrarySchema checks the generated HoardingPermit schema
// against the structure of the paper's Figure 6.
func TestFigure6DOCLibrarySchema(t *testing.T) {
	f, res := generateDoc(t, Options{})
	doc := res.Primary()
	if doc == nil {
		t.Fatal("no primary schema")
	}

	// Line 1: target namespace and form defaults.
	if doc.TargetNamespace != "urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit" {
		t.Errorf("targetNamespace = %q", doc.TargetNamespace)
	}
	if doc.ElementFormDefault != "qualified" || doc.AttributeFormDefault != "unqualified" {
		t.Errorf("form defaults = %q/%q", doc.ElementFormDefault, doc.AttributeFormDefault)
	}

	// Lines 2-5: exactly four imports, in discovery order: CDT, QDT,
	// CommonAggregates, LocalLawAggregates.
	wantImports := []string{
		"un:unece:uncefact:data:standard:CDTLibrary:1.0",
		"urn:au:gov:vic:easybiz:types:draft:QualifiedDataTypes",
		"urn:au:gov:vic:easybiz:data:draft:CommonAggregates",
		"urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates",
	}
	if len(doc.Imports) != len(wantImports) {
		t.Fatalf("imports = %d, want %d: %+v", len(doc.Imports), len(wantImports), doc.Imports)
	}
	for i, want := range wantImports {
		if doc.Imports[i].Namespace != want {
			t.Errorf("import %d = %q, want %q", i, doc.Imports[i].Namespace, want)
		}
	}

	// Prefixes: doc for the target library, commonAggregates (user
	// prefix), cdt1/qdt1 (auto), bie2 for the second BIE library.
	for uri, wantPrefix := range map[string]string{
		"urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit": "doc",
		"urn:au:gov:vic:easybiz:data:draft:CommonAggregates":     "commonAggregates",
		"urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates":   "bie2",
		"un:unece:uncefact:data:standard:CDTLibrary:1.0":         "cdt1",
		"urn:au:gov:vic:easybiz:types:draft:QualifiedDataTypes":  "qdt1",
	} {
		got, ok := doc.PrefixFor(uri)
		if !ok || got != wantPrefix {
			t.Errorf("prefix for %s = %q (%v), want %q", uri, got, ok, wantPrefix)
		}
	}

	// Lines 6-17: the HoardingPermitType sequence.
	ct := doc.ComplexType("HoardingPermitType")
	if ct == nil {
		t.Fatal("HoardingPermitType missing")
	}
	type wantEl struct {
		name, typ string
		min, max  int
	}
	want := []wantEl{
		{"ClosureReason", "cdt1:TextType", 0, 1},
		{"IsClosedFootpath", "qdt1:Indicator_CodeType", 0, 1},
		{"IsClosedRoad", "qdt1:Indicator_CodeType", 0, 1},
		{"SafetyPrecaution", "cdt1:TextType", 0, 1},
		{"IncludedAttachment", "commonAggregates:AttachmentType", 0, xsd.Unbounded},
		{"CurrentApplication", "commonAggregates:ApplicationType", 0, 1},
		{"IncludedRegistration", "bie2:RegistrationType", 1, 1},
		{"BillingPerson_Identification", "commonAggregates:Person_IdentificationType", 0, 1},
	}
	if len(ct.Sequence) != len(want) {
		t.Fatalf("sequence = %d elements, want %d", len(ct.Sequence), len(want))
	}
	for i, w := range want {
		el := ct.Sequence[i]
		if el.Name != w.name || el.Type != w.typ {
			t.Errorf("element %d = %s:%s, want %s:%s", i, el.Name, el.Type, w.name, w.typ)
		}
		min, max := el.Occurs.Min, el.Occurs.Max
		if el.Occurs == (xsd.Occurs{}) {
			min, max = 1, 1
		}
		if min != w.min || max != w.max {
			t.Errorf("element %s occurs = %d..%d, want %d..%d", w.name, min, max, w.min, w.max)
		}
	}

	// Line 18: exactly one global element, the selected root.
	if len(doc.Elements) != 1 {
		t.Fatalf("global elements = %d, want 1", len(doc.Elements))
	}
	root := doc.Elements[0]
	if root.Name != "HoardingPermit" || root.Type != "doc:HoardingPermitType" {
		t.Errorf("root = %s type %s", root.Name, root.Type)
	}
	if res.RootElement != "HoardingPermit" {
		t.Errorf("RootElement = %q", res.RootElement)
	}

	// HoardingDetails is defined in the DOCLibrary but unreachable from
	// the root: it must not be generated.
	if doc.ComplexType("HoardingDetailsType") != nil {
		t.Error("unreachable HoardingDetailsType must not be generated")
	}

	// Five schemas in total: doc + 4 imports... plus the ENUM library
	// pulled in by the QDT schema.
	if f.Model == nil {
		t.Fatal("fixture broken")
	}
	wantFiles := map[string]bool{
		"EB005-HoardingPermit_0.4.xsd":         true,
		"coredatatypes_1.0.xsd":                true,
		"BuildingAndPlanningDataTypes_0.1.xsd": true,
		"CommonAggregates_0.1.xsd":             true,
		"LocalLawAggregates_0.1.xsd":           true,
		"EnumerationTypes_0.1.xsd":             true,
	}
	if len(res.Schemas) != len(wantFiles) {
		t.Errorf("generated files = %v", res.Order)
	}
	for f := range wantFiles {
		if res.Schemas[f] == nil {
			t.Errorf("missing generated schema %s", f)
		}
	}
	if res.Order[0] != "EB005-HoardingPermit_0.4.xsd" {
		t.Errorf("primary schema = %s", res.Order[0])
	}
}

// TestFigure7GlobalASBIE checks the shared-aggregation treatment: the
// ASBIE AssignedAddress is declared globally and referenced in
// Person_IdentificationType.
func TestFigure7GlobalASBIE(t *testing.T) {
	f, res := generateDoc(t, Options{})
	common := res.Schema(f.Common)
	if common == nil {
		t.Fatal("CommonAggregates schema missing")
	}

	// Line 21: global element declaration.
	global := common.GlobalElement("AssignedAddress")
	if global == nil {
		t.Fatal("AssignedAddress not declared globally")
	}
	if global.Type != "commonAggregates:AddressType" {
		t.Errorf("AssignedAddress type = %q", global.Type)
	}

	// Lines 22-28: Person_IdentificationType references it.
	pid := common.ComplexType("Person_IdentificationType")
	if pid == nil {
		t.Fatal("Person_IdentificationType missing")
	}
	var (
		sawDesignation, sawSignature bool
		refEl                        *xsd.Element
	)
	for _, el := range pid.Sequence {
		switch {
		case el.Name == "Designation":
			sawDesignation = true
			if el.Type != "cdt1:IdentifierType" {
				t.Errorf("Designation type = %q", el.Type)
			}
		case el.Name == "PersonalSignature":
			sawSignature = true
			if el.Type != "commonAggregates:SignatureType" {
				t.Errorf("PersonalSignature type = %q", el.Type)
			}
		case el.Ref != "":
			refEl = el
		}
	}
	if !sawDesignation || !sawSignature {
		t.Error("Person_IdentificationType sequence incomplete")
	}
	if refEl == nil || refEl.Ref != "commonAggregates:AssignedAddress" {
		t.Errorf("AssignedAddress ref = %+v", refEl)
	}

	// Composition-connected ASBIEs stay inline: PersonalSignature has a
	// type, not a ref — checked above.
}

// TestFigure7AlternativeStyle flips the rule to the paper's Section 4.1
// prose: compositions become global elements.
func TestFigure7AlternativeStyle(t *testing.T) {
	f, res := generateDoc(t, Options{Style: GlobalComposite})
	common := res.Schema(f.Common)
	// Now PersonalSignature is global+ref and AssignedAddress is inline.
	if common.GlobalElement("PersonalSignature") == nil {
		t.Error("PersonalSignature should be global in GlobalComposite style")
	}
	if common.GlobalElement("AssignedAddress") != nil {
		t.Error("AssignedAddress should be inline in GlobalComposite style")
	}
	doc := res.Primary()
	// The DOC library's composite ASBIEs also become global+ref.
	if doc.GlobalElement("IncludedAttachment") == nil {
		t.Error("IncludedAttachment should be global in GlobalComposite style")
	}
}

// TestFigure8CDTSchema checks the CodeType pattern of Figure 8.
func TestFigure8CDTSchema(t *testing.T) {
	f := buildFixture(t)
	res, err := GenerateDocument(f.Catalog.CDTLibrary, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Primary()
	code := s.ComplexType("CodeType")
	if code == nil {
		t.Fatal("CodeType missing")
	}
	if code.SimpleContent == nil || code.SimpleContent.Extension == nil {
		t.Fatal("CodeType must use simpleContent/extension")
	}
	ext := code.SimpleContent.Extension
	if ext.Base != "xsd:string" {
		t.Errorf("extension base = %q", ext.Base)
	}
	wantAttrs := map[string]string{
		"CodeListAgName":     "required",
		"CodeListName":       "required",
		"CodeListSchemeURI":  "required",
		"LanguageIdentifier": "optional",
	}
	if len(ext.Attributes) != len(wantAttrs) {
		t.Fatalf("attributes = %d, want %d", len(ext.Attributes), len(wantAttrs))
	}
	for _, a := range ext.Attributes {
		use, ok := wantAttrs[a.Name]
		if !ok {
			t.Errorf("unexpected attribute %q", a.Name)
			continue
		}
		if a.Use != use {
			t.Errorf("attribute %s use = %q, want %q", a.Name, a.Use, use)
		}
		if a.Type != "xsd:string" {
			t.Errorf("attribute %s type = %q", a.Name, a.Type)
		}
	}
	// Every catalog CDT gets a complexType.
	for _, cdt := range f.Catalog.CDTLibrary.CDTs {
		if s.ComplexType(core.TypeName(cdt.Name)) == nil {
			t.Errorf("missing complexType for CDT %s", cdt.Name)
		}
	}
}

func TestQDTSchema(t *testing.T) {
	f := buildFixture(t)
	res, err := GenerateDocument(f.QDTLib, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Primary()

	// CountryType: content restricted by enumeration -> extension base is
	// the enum simple type from the imported ENUM schema.
	country := s.ComplexType("CountryTypeType")
	if country == nil {
		t.Fatal("CountryTypeType missing")
	}
	ext := country.SimpleContent.Extension
	if ext.Base != "enum1:CountryType_CodeType" {
		t.Errorf("CountryType base = %q", ext.Base)
	}
	if len(ext.Attributes) != 1 || ext.Attributes[0].Name != "CodeListName" || ext.Attributes[0].Use != "optional" {
		t.Errorf("CountryType attributes = %+v", ext.Attributes)
	}

	// Indicator_Code: no enum -> base is the CDT's primitive builtin.
	ind := s.ComplexType("Indicator_CodeType")
	if ind == nil {
		t.Fatal("Indicator_CodeType missing")
	}
	if ind.SimpleContent.Extension.Base != "xsd:string" {
		t.Errorf("Indicator_Code base = %q", ind.SimpleContent.Extension.Base)
	}

	// The ENUM library schema was generated and imported.
	enumSchema := res.Schema(f.EnumLib)
	if enumSchema == nil {
		t.Fatal("ENUM schema missing")
	}
	if len(s.Imports) != 1 || s.Imports[0].Namespace != f.EnumLib.BaseURN {
		t.Errorf("QDT imports = %+v", s.Imports)
	}
}

func TestENUMSchema(t *testing.T) {
	f := buildFixture(t)
	res, err := GenerateDocument(f.EnumLib, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Primary()
	council := s.SimpleType("CouncilType_CodeType")
	if council == nil {
		t.Fatal("CouncilType_CodeType missing")
	}
	if council.Restriction.Base != "xsd:token" {
		t.Errorf("restriction base = %q", council.Restriction.Base)
	}
	want := []string{"kingston", "morningtonpeninsula", "northerngrampians", "portphillip", "pyrenees"}
	if len(council.Restriction.Enumerations) != len(want) {
		t.Fatalf("enumerations = %v", council.Restriction.Enumerations)
	}
	for i, v := range want {
		if council.Restriction.Enumerations[i] != v {
			t.Errorf("enumeration %d = %q, want %q", i, council.Restriction.Enumerations[i], v)
		}
	}
	country := s.SimpleType("CountryType_CodeType")
	if country == nil || len(country.Restriction.Enumerations) != 3 {
		t.Errorf("CountryType_CodeType = %+v", country)
	}
}

func TestBIELibraryGeneration(t *testing.T) {
	f := buildFixture(t)
	res, err := GenerateDocument(f.Common, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Primary()
	// All five ABIEs of CommonAggregates are generated.
	for _, name := range []string{
		"SignatureType", "AddressType", "Person_IdentificationType",
		"ApplicationType", "AttachmentType",
	} {
		if s.ComplexType(name) == nil {
			t.Errorf("missing %s", name)
		}
	}
	// Application's BBIEs with paper cardinalities.
	app := s.ComplexType("ApplicationType")
	if len(app.Sequence) != 2 {
		t.Fatalf("ApplicationType sequence = %d", len(app.Sequence))
	}
	if app.Sequence[0].Name != "CreatedDate" || app.Sequence[0].Type != "cdt1:DateType" {
		t.Errorf("CreatedDate = %+v", app.Sequence[0])
	}
	if app.Sequence[0].Occurs.Min != 0 {
		t.Errorf("CreatedDate should be optional")
	}
	// Address's renamed BBIE typed by the QDT.
	addr := s.ComplexType("AddressType")
	if len(addr.Sequence) != 1 || addr.Sequence[0].Name != "CountryName" || addr.Sequence[0].Type != "qdt1:CountryTypeType" {
		t.Errorf("AddressType sequence = %+v", addr.Sequence[0])
	}
}

func TestAnnotations(t *testing.T) {
	f := buildFixture(t)
	res, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Primary()
	if _, ok := doc.PrefixFor(xsd.CCTSDocumentationNamespace); !ok {
		t.Error("ccts namespace not declared on annotated schema")
	}
	ct := doc.ComplexType("HoardingPermitType")
	if ct.Annotation == nil {
		t.Fatal("HoardingPermitType missing annotation")
	}
	tags := map[string]string{}
	for _, d := range ct.Annotation.Documentation {
		tags[d.Tag] = d.Value
	}
	// "An ABIE ... has two mandatory annotation fields Version and
	// Definition."
	if _, ok := tags["Version"]; !ok {
		t.Error("annotation missing Version")
	}
	if _, ok := tags["Definition"]; !ok {
		t.Error("annotation missing Definition")
	}
	if tags["ComponentType"] != "ABIE" {
		t.Errorf("ComponentType = %q", tags["ComponentType"])
	}
	if !strings.Contains(tags["DictionaryEntryName"], "Hoarding Permit") {
		t.Errorf("DEN = %q", tags["DictionaryEntryName"])
	}
	// BBIE elements carry annotations too.
	if ct.Sequence[0].Annotation == nil {
		t.Error("BBIE element missing annotation")
	}
	// Unannotated runs omit them.
	res2, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Primary().ComplexType("HoardingPermitType").Annotation != nil {
		t.Error("annotation present without Annotate option")
	}
}

func TestGenerateErrors(t *testing.T) {
	f := buildFixture(t)

	if _, err := GenerateDocument(nil, "X", Options{}); err == nil {
		t.Error("nil library must fail")
	}
	// PRIM libraries generate no schema.
	if _, err := GenerateDocument(f.Catalog.PRIMLibrary, "", Options{}); err != ErrPRIMLibrary {
		t.Errorf("PRIM generation error = %v", err)
	}
	// CC libraries are conceptual.
	if _, err := GenerateDocument(f.CCLib, "", Options{}); err == nil {
		t.Error("CCLibrary generation must fail")
	}
	// DOC libraries need a root; the error lists the candidates.
	_, err := GenerateDocument(f.DOCLib, "", Options{})
	if !errors.Is(err, ErrNoRoot) || !strings.Contains(err.Error(), "HoardingPermit") {
		t.Errorf("DOCLibrary without a root: err = %v, want ErrNoRoot listing HoardingPermit", err)
	}
	// Other kinds ignore the root.
	if _, err := GenerateDocument(f.Common, "Nope", Options{}); err != nil {
		t.Errorf("BIELibrary with a root: %v", err)
	}
	// Unknown root.
	if _, err := GenerateDocument(f.DOCLib, "Nope", Options{}); err == nil {
		t.Error("unknown root must fail")
	}
	// Library without baseURN aborts.
	f.Common.BaseURN = ""
	if _, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{}); err == nil {
		t.Error("missing baseURN must abort generation")
	}
}

func TestStatusMessages(t *testing.T) {
	f := buildFixture(t)
	var messages []string
	_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{
		Status: func(msg string) { messages = append(messages, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(messages) < 3 {
		t.Errorf("expected status messages, got %v", messages)
	}
	joined := strings.Join(messages, "\n")
	if !strings.Contains(joined, "HoardingPermit") {
		t.Errorf("status messages lack context: %v", messages)
	}
}

func TestDeterministicOutput(t *testing.T) {
	_, res1 := generateDoc(t, Options{Annotate: true})
	_, res2 := generateDoc(t, Options{Annotate: true})
	if len(res1.Order) != len(res2.Order) {
		t.Fatal("different schema counts")
	}
	for i := range res1.Order {
		if res1.Order[i] != res2.Order[i] {
			t.Fatalf("order differs: %v vs %v", res1.Order, res2.Order)
		}
		a := res1.Schemas[res1.Order[i]].String()
		b := res2.Schemas[res2.Order[i]].String()
		if a != b {
			t.Errorf("schema %s not byte-identical across runs", res1.Order[i])
		}
	}
}

func TestGeneratedSchemasParse(t *testing.T) {
	_, res := generateDoc(t, Options{Annotate: true})
	for file, s := range res.Schemas {
		doc := s.String()
		parsed, err := xsd.ParseString(doc)
		if err != nil {
			t.Errorf("%s does not re-parse: %v", file, err)
			continue
		}
		if parsed.TargetNamespace != s.TargetNamespace {
			t.Errorf("%s: namespace lost in round trip", file)
		}
	}
}

func TestSyntheticChainGeneration(t *testing.T) {
	m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{ABIEs: 20, BBIEsPerABIE: 5, Chain: true})
	if err != nil {
		t.Fatal(err)
	}
	docLib := m.FindLibrary("SynDoc")
	res, err := GenerateDocument(docLib, root.Name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bie := res.Schemas["SynBIE_1.0.xsd"]
	if bie == nil {
		t.Fatalf("BIE schema missing: %v", res.Order)
	}
	if got := len(bie.ComplexTypes); got != 20 {
		t.Errorf("chained ABIE types = %d, want 20", got)
	}
}

func TestResultAccessors(t *testing.T) {
	f, res := generateDoc(t, Options{})
	if res.Schema(f.DOCLib) != res.Primary() {
		t.Error("Schema/Primary mismatch")
	}
	empty := &Result{}
	if empty.Primary() != nil {
		t.Error("empty result Primary should be nil")
	}
}
