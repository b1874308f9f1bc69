package uml

import (
	"testing"
	"testing/quick"
)

func TestMultiplicityString(t *testing.T) {
	cases := []struct {
		m    Multiplicity
		want string
	}{
		{One, "1"},
		{Optional, "0..1"},
		{Many, "0..*"},
		{OneOrMore, "1..*"},
		{Multiplicity{2, 5}, "2..5"},
		{Multiplicity{3, 3}, "3"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestParseMultiplicity(t *testing.T) {
	cases := []struct {
		in   string
		want Multiplicity
	}{
		{"1", One},
		{"0..1", Optional},
		{"0..*", Many},
		{"*", Many},
		{"1..*", OneOrMore},
		{"2..5", Multiplicity{2, 5}},
		{"", One},
		{" 0..1 ", Optional},
		// Spaces around each bound are allowed.
		{"0 .. 1", Optional},
		{" 2 ..5", Multiplicity{2, 5}},
		{"0..\t*", Many},
		{"007", Multiplicity{7, 7}},
	}
	for _, c := range cases {
		got, err := ParseMultiplicity(c.in)
		if err != nil {
			t.Errorf("ParseMultiplicity(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMultiplicity(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseMultiplicityErrors(t *testing.T) {
	for _, in := range []string{"x", "-1", "5..2", "*..1", "1..x", "1..-3",
		// Trailing garbage, other bases, separators and signs.
		"1.5", "0x10", "1x", "1_0", "+1", "1..2x", "0..1.5", "0..0x10", "1 2", "..1", "1..",
		// A bound that overflows int.
		"99999999999999999999", "0..99999999999999999999"} {
		if _, err := ParseMultiplicity(in); err == nil {
			t.Errorf("ParseMultiplicity(%q): expected error", in)
		}
	}
}

func TestMultiplicityRoundTrip(t *testing.T) {
	f := func(lo uint8, hiRaw int8) bool {
		m := Multiplicity{Lower: int(lo), Upper: int(lo) + int(uint8(hiRaw))%7}
		if hiRaw%3 == 0 {
			m.Upper = Unbounded
		}
		if !m.Valid() {
			return true
		}
		back, err := ParseMultiplicity(m.String())
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiplicityWithin(t *testing.T) {
	cases := []struct {
		inner, outer Multiplicity
		want         bool
	}{
		{One, One, true},
		{One, Optional, true},
		{Optional, One, false},  // lowering the floor is not a restriction
		{Optional, Many, true},  // 0..1 within 0..*
		{Many, Optional, false}, // unbounded cannot fit a bounded outer
		{Multiplicity{2, 3}, Multiplicity{1, 5}, true},
		{Multiplicity{0, 3}, Multiplicity{1, 5}, false},
		{Multiplicity{2, 6}, Multiplicity{1, 5}, false},
		{OneOrMore, Many, true},
	}
	for _, c := range cases {
		if got := c.inner.Within(c.outer); got != c.want {
			t.Errorf("(%v).Within(%v) = %v, want %v", c.inner, c.outer, got, c.want)
		}
	}
}

func TestMultiplicityWithinReflexive(t *testing.T) {
	f := func(lo uint8, span uint8, unbounded bool) bool {
		m := Multiplicity{Lower: int(lo), Upper: int(lo) + int(span)}
		if unbounded {
			m.Upper = Unbounded
		}
		return m.Within(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedValues(t *testing.T) {
	var tv TaggedValues
	if tv.Has("x") {
		t.Error("zero TaggedValues should not have any tag")
	}
	tv.Set("baseURN", "urn:example")
	tv.Set("alpha", "1")
	if got := tv.Get("baseURN"); got != "urn:example" {
		t.Errorf("Get = %q", got)
	}
	if !tv.Has("alpha") {
		t.Error("expected alpha")
	}
	names := tv.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "baseURN" {
		t.Errorf("Names = %v, want sorted [alpha baseURN]", names)
	}
	clone := tv.Clone()
	clone.Set("alpha", "2")
	if tv.Get("alpha") != "1" {
		t.Error("Clone must be independent")
	}
	var nilTV TaggedValues
	if nilTV.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func buildSampleModel() *Model {
	m := NewModel("Test")
	biz := m.AddPackage("EasyBiz", "BusinessLibrary")
	cc := biz.AddPackage("CandidateCoreComponents", "CCLibrary")
	bie := biz.AddPackage("CommonAggregates", "BIELibrary")

	person := cc.AddClass("Person", "ACC")
	person.AddAttribute("DateofBirth", "BCC", "Date", One)
	person.AddAttribute("FirstName", "BCC", "Text", One)
	address := cc.AddClass("Address", "ACC")
	address.AddAttribute("Country", "BCC", "Country_Code", One)
	address.AddAttribute("PostalCode", "BCC", "Text", One)
	address.AddAttribute("Street", "BCC", "Text", One)
	cc.AddAssociation(&Association{
		Stereotype: "ASCC", Source: person, Target: address,
		TargetRole: "Private", TargetMult: One, Kind: AggregationComposite,
	})
	cc.AddAssociation(&Association{
		Stereotype: "ASCC", Source: person, Target: address,
		TargetRole: "Work", TargetMult: One, Kind: AggregationComposite,
	})

	usPerson := bie.AddClass("US_Person", "ABIE")
	usPerson.AddAttribute("DateofBirth", "BBIE", "Date", One)
	bie.AddDependency("basedOn", usPerson, person)
	return m
}

func TestModelBuildAndLookup(t *testing.T) {
	m := buildSampleModel()

	if p := m.FindPackage("CommonAggregates"); p == nil || p.Stereotype != "BIELibrary" {
		t.Fatalf("FindPackage simple name failed: %v", p)
	}
	if p := m.FindPackage("EasyBiz::CandidateCoreComponents"); p == nil {
		t.Fatal("FindPackage qualified name failed")
	}
	if p := m.FindPackage("Nope"); p != nil {
		t.Error("FindPackage should return nil for missing package")
	}

	person := m.FindClass("Person")
	if person == nil {
		t.Fatal("FindClass Person failed")
	}
	if got := person.QualifiedName(); got != "EasyBiz::CandidateCoreComponents::Person" {
		t.Errorf("QualifiedName = %q", got)
	}
	if c := m.FindClass("EasyBiz::CandidateCoreComponents::Address"); c == nil {
		t.Error("FindClass qualified failed")
	}
	if c := m.FindClass("Missing"); c != nil {
		t.Error("FindClass should return nil for missing class")
	}

	bccs := person.AttributesByStereotype("BCC")
	if len(bccs) != 2 {
		t.Errorf("Person BCCs = %d, want 2", len(bccs))
	}
	if person.AttributesByStereotype("SUP") != nil {
		t.Error("expected no SUP attributes")
	}

	asccs := m.AssociationsFrom(person)
	if len(asccs) != 2 {
		t.Fatalf("AssociationsFrom(Person) = %d, want 2", len(asccs))
	}
	if asccs[0].TargetRole != "Private" || asccs[1].TargetRole != "Work" {
		t.Errorf("association order not preserved: %q, %q", asccs[0].TargetRole, asccs[1].TargetRole)
	}

	usPerson := m.FindClass("US_Person")
	deps := m.DependenciesFrom(usPerson)
	if len(deps) != 1 || deps[0].Supplier != person {
		t.Errorf("DependenciesFrom(US_Person) = %v", deps)
	}
	if m.DependenciesFrom(person) != nil {
		t.Error("Person should have no outgoing dependencies")
	}
}

func TestModelStats(t *testing.T) {
	m := buildSampleModel()
	s := m.Stats()
	want := Stats{Packages: 3, Classes: 3, Attributes: 6, Associations: 2, Dependencies: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestWalkStops(t *testing.T) {
	m := buildSampleModel()
	count := 0
	m.WalkClasses(func(*Class) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("walk visited %d classes after stop, want 2", count)
	}
	pcount := 0
	m.WalkPackages(func(*Package) bool {
		pcount++
		return false
	})
	if pcount != 1 {
		t.Errorf("package walk visited %d, want 1", pcount)
	}
}

func TestResolveType(t *testing.T) {
	m := buildSampleModel()
	enumPkg := m.FindPackage("EasyBiz").AddPackage("EnumerationTypes", "ENUMLibrary")
	enumPkg.AddEnumeration("Country_Code", "ENUM").
		AddLiteral("AUT", "Austria").
		AddLiteral("USA", "United States of America")

	cl, err := m.ResolveType("Person")
	if err != nil || cl.ClassifierName() != "Person" {
		t.Errorf("ResolveType(Person) = %v, %v", cl, err)
	}
	en, err := m.ResolveType("Country_Code")
	if err != nil {
		t.Fatalf("ResolveType(Country_Code): %v", err)
	}
	if en.ClassifierStereotype() != "ENUM" {
		t.Errorf("stereotype = %q", en.ClassifierStereotype())
	}
	if en.QualifiedName() != "EasyBiz::EnumerationTypes::Country_Code" {
		t.Errorf("QualifiedName = %q", en.QualifiedName())
	}
	if _, err := m.ResolveType("Bogus"); err == nil {
		t.Error("expected error for unresolved type")
	}
	if _, err := m.ResolveType(""); err == nil {
		t.Error("expected error for empty type")
	}
}

func TestFindEnumeration(t *testing.T) {
	m := buildSampleModel()
	enumPkg := m.FindPackage("EasyBiz").AddPackage("EnumerationTypes", "ENUMLibrary")
	e := enumPkg.AddEnumeration("CouncilType_Code", "ENUM")
	e.AddLiteral("portphillip", "Port Phillip City Council")

	if got := m.FindEnumeration("CouncilType_Code"); got != e {
		t.Error("FindEnumeration by simple name failed")
	}
	if got := m.FindEnumeration("EasyBiz::EnumerationTypes::CouncilType_Code"); got != e {
		t.Error("FindEnumeration by qualified name failed")
	}
	if m.FindEnumeration("Missing") != nil {
		t.Error("expected nil for missing enumeration")
	}
	if len(e.Literals) != 1 || e.Literals[0].Name != "portphillip" {
		t.Errorf("Literals = %v", e.Literals)
	}
}

func TestAggregationKind(t *testing.T) {
	for _, k := range []AggregationKind{AggregationNone, AggregationShared, AggregationComposite} {
		back, err := ParseAggregationKind(k.String())
		if err != nil || back != k {
			t.Errorf("round trip %v failed: %v, %v", k, back, err)
		}
	}
	if _, err := ParseAggregationKind("diamond"); err == nil {
		t.Error("expected error for unknown kind")
	}
	if k, err := ParseAggregationKind(""); err != nil || k != AggregationNone {
		t.Errorf("empty kind = %v, %v", k, err)
	}
	if got := AggregationKind(42).String(); got != "AggregationKind(42)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestPackageParentAndModel(t *testing.T) {
	m := buildSampleModel()
	biz := m.FindPackage("EasyBiz")
	cc := m.FindPackage("CandidateCoreComponents")
	if cc.Parent() != biz {
		t.Error("Parent link broken")
	}
	if biz.Parent() != nil {
		t.Error("top-level parent should be nil")
	}
	if cc.Model() != m || biz.Model() != m {
		t.Error("Model link broken")
	}
}
