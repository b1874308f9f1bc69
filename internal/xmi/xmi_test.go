package xmi

import (
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
)

func hoardingUML(t *testing.T) *uml.Model {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	return profile.Render(f.Model)
}

func TestExportStructure(t *testing.T) {
	um := hoardingUML(t)
	doc := ExportString(um)
	for _, want := range []string{
		`<?xml version="1.0" encoding="UTF-8"?>`,
		`<xmi:XMI xmi:version="2.1"`,
		`<uml:Model xmi:id="model" name="EasyBiz">`,
		`xmi:type="uml:Package"`,
		`stereotype="BusinessLibrary"`,
		`stereotype="DOCLibrary"`,
		`name="HoardingPermit" stereotype="ABIE"`,
		`<taggedValue tag="baseURN" value="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"/>`,
		`xmi:type="uml:Association"`,
		`stereotype="ASBIE"`,
		`xmi:type="uml:Dependency"`,
		`stereotype="basedOn"`,
		`xmi:type="uml:Enumeration"`,
		`<ownedLiteral name="AUT" value="Austria"/>`,
		`aggregation="shared"`,
		`upper="*"`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

func TestExportDeterministic(t *testing.T) {
	a := ExportString(hoardingUML(t))
	b := ExportString(hoardingUML(t))
	if a != b {
		t.Error("XMI export is not deterministic")
	}
}

func TestRoundTrip(t *testing.T) {
	um := hoardingUML(t)
	doc := ExportString(um)
	back, err := ImportString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != um.Name {
		t.Errorf("model name = %q", back.Name)
	}
	if s1, s2 := um.Stats(), back.Stats(); s1 != s2 {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	// The re-imported model still satisfies the profile constraints.
	if vs := profile.EvaluateConstraints(back); len(vs) != 0 {
		t.Errorf("round-tripped model violates constraints: %v", vs)
	}
	// And extracts into the same CCTS structure.
	cm, err := profile.Extract(back)
	if err != nil {
		t.Fatal(err)
	}
	hp := cm.FindABIE("HoardingPermit")
	if hp == nil {
		t.Fatal("HoardingPermit lost in XMI round trip")
	}
	wantEntities := []string{
		"HoardingPermit (ABIE)",
		"HoardingPermit.ClosureReason (BBIE)",
		"HoardingPermit.IsClosedFootpath (BBIE)",
		"HoardingPermit.IsClosedRoad (BBIE)",
		"HoardingPermit.SafetyPrecaution (BBIE)",
		"HoardingPermit.Included.Attachment (ASBIE)",
		"HoardingPermit.Current.Application (ASBIE)",
		"HoardingPermit.Included.Registration (ASBIE)",
		"HoardingPermit.Billing.Person_Identification (ASBIE)",
	}
	got := hp.EntitySet()
	if len(got) != len(wantEntities) {
		t.Fatalf("entity set = %v", got)
	}
	for i := range wantEntities {
		if got[i] != wantEntities[i] {
			t.Errorf("entity %d = %q, want %q", i, got[i], wantEntities[i])
		}
	}
	// Second export is byte-identical: canonical form.
	if ExportString(back) != doc {
		t.Error("second export differs from first")
	}
}

func TestRoundTripTaggedValuesAndKinds(t *testing.T) {
	um := hoardingUML(t)
	back, err := ImportString(ExportString(um))
	if err != nil {
		t.Fatal(err)
	}
	common := back.FindPackage("CommonAggregates")
	if common.Tags.Get(profile.TagNamespacePrefix) != "commonAggregates" {
		t.Errorf("NamespacePrefix tag lost: %v", common.Tags)
	}
	pid := back.FindClass("Person_Identification")
	var shared *uml.Association
	for _, a := range back.AssociationsFrom(pid) {
		if a.TargetRole == "Assigned" {
			shared = a
		}
	}
	if shared == nil || shared.Kind != uml.AggregationShared {
		t.Errorf("shared aggregation kind lost: %+v", shared)
	}
	// Multiplicities survive, including unbounded.
	hp := back.FindClass("HoardingPermit")
	var included *uml.Association
	for _, a := range back.AssociationsFrom(hp) {
		if a.TargetRole == "Included" && a.Target.Name == "Attachment" {
			included = a
		}
	}
	if included == nil || included.TargetMult != uml.Many {
		t.Errorf("unbounded multiplicity lost: %+v", included)
	}
}

// TestEscaping round-trips a model name and tagged values holding markup
// characters and characters Go quoting would mangle: backslash, tab,
// line feed, carriage return and a no-break space.
func TestEscaping(t *testing.T) {
	m := uml.NewModel(`Weird "& <Model>`)
	p := m.AddPackage("P", "BusinessLibrary")
	values := map[string]string{
		"note":  `a"b<c>&d`,
		"path":  `C:\dir\file`,
		"lines": "one\ttwo\nthree\r\nfour",
		"nbsp":  "x\u00a0y",
	}
	for k, v := range values {
		p.Tags.Set(k, v)
	}
	doc := ExportString(m)
	back, err := ImportString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name {
		t.Errorf("name = %q", back.Name)
	}
	for k, v := range values {
		if got := back.FindPackage("P").Tags.Get(k); got != v {
			t.Errorf("tag %s = %q, want %q", k, got, v)
		}
	}
	if ExportString(back) != doc {
		t.Error("second export differs from the first")
	}
}

func TestImportErrors(t *testing.T) {
	bad := []string{
		``,
		`<foo/>`,
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1"></xmi:XMI>`,
		// Unknown packagedElement type.
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
		  <uml:Model xmi:id="m" name="X">
		    <packagedElement xmi:type="uml:Widget" xmi:id="p1" name="P"/>
		  </uml:Model></xmi:XMI>`,
		// Dangling association reference.
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
		  <uml:Model xmi:id="m" name="X">
		    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="P" stereotype="CCLibrary">
		      <packagedElement xmi:type="uml:Association" xmi:id="a1" stereotype="ASCC" source="nope" target="nope" role="r" aggregation="composite" lower="1" upper="1"/>
		    </packagedElement>
		  </uml:Model></xmi:XMI>`,
		// Class child at model level.
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
		  <uml:Model xmi:id="m" name="X">
		    <packagedElement xmi:type="uml:Class" xmi:id="c1" name="C" stereotype="ACC"/>
		  </uml:Model></xmi:XMI>`,
		// Bad aggregation kind.
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
		  <uml:Model xmi:id="m" name="X">
		    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="P" stereotype="CCLibrary">
		      <packagedElement xmi:type="uml:Association" xmi:id="a1" stereotype="ASCC" source="p1" target="p1" role="r" aggregation="diamond"/>
		    </packagedElement>
		  </uml:Model></xmi:XMI>`,
	}
	for i, doc := range bad {
		if _, err := ImportString(doc); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestImportForeignFormatting accepts XMI that other tools would write:
// different attribute order, extra whitespace, XML comments and a
// processing instruction.
func TestImportForeignFormatting(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!-- exported by some other tool -->
<?tool hint?>
<xmi:XMI xmlns:uml="http://schema.omg.org/spec/UML/2.1"
         xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmi:version="2.1">
  <uml:Model name="Foreign" xmi:id="m0">
    <packagedElement name="Biz" xmi:id="p0" stereotype="BusinessLibrary" xmi:type="uml:Package">
      <packagedElement stereotype="CCLibrary" name="CC" xmi:type="uml:Package" xmi:id="p1">
        <taggedValue value="urn:foreign:cc" tag="baseURN"/>
        <packagedElement xmi:id="c1" xmi:type="uml:Class" stereotype="ACC" name="Thing">
          <ownedAttribute upper="1" lower="0" type="Text" stereotype="BCC" name="Label" xmi:id="a1"/>
        </packagedElement>
        <!-- a comment between elements -->
        <packagedElement xmi:type="uml:Class" name="Other" stereotype="ACC" xmi:id="c2"/>
        <packagedElement xmi:type="uml:Association" xmi:id="as1" stereotype="ASCC"
            source="c1" target="c2" role="Linked" aggregation="composite" lower="1" upper="1"/>
      </packagedElement>
    </packagedElement>
  </uml:Model>
</xmi:XMI>`
	m, err := ImportString(doc)
	if err != nil {
		t.Fatal(err)
	}
	thing := m.FindClass("Thing")
	if thing == nil || thing.Stereotype != "ACC" {
		t.Fatalf("Thing = %v", thing)
	}
	if len(thing.Attributes) != 1 || thing.Attributes[0].Mult != uml.Optional {
		t.Errorf("attributes = %+v", thing.Attributes)
	}
	if m.FindPackage("CC").Tags.Get("baseURN") != "urn:foreign:cc" {
		t.Error("tagged value lost")
	}
	assocs := m.AssociationsFrom(thing)
	if len(assocs) != 1 || assocs[0].TargetRole != "Linked" {
		t.Errorf("associations = %+v", assocs)
	}
}

func TestDependencyToEnumeration(t *testing.T) {
	// basedOn dependencies may point at enumerations in principle; the
	// classifier resolution must handle both classifier kinds.
	m := uml.NewModel("M")
	biz := m.AddPackage("B", "BusinessLibrary")
	lib := biz.AddPackage("L", "ENUMLibrary")
	lib.Tags.Set("baseURN", "urn:l")
	e := lib.AddEnumeration("E", "ENUM")
	e.AddLiteral("A", "a")
	cls := lib.AddClass("C", "QDT")
	lib.AddDependency("uses", cls, e)

	back, err := ImportString(ExportString(m))
	if err != nil {
		t.Fatal(err)
	}
	var dep *uml.Dependency
	back.WalkDependencies(func(d *uml.Dependency) bool {
		dep = d
		return false
	})
	if dep == nil {
		t.Fatal("dependency lost")
	}
	if dep.Supplier.ClassifierName() != "E" || dep.Supplier.ClassifierStereotype() != "ENUM" {
		t.Errorf("supplier = %v", dep.Supplier)
	}
}
