package validate

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmi"
)

func hasRule(r *Report, rule string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func rules(r *Report) []string {
	out := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		out[i] = f.Rule
	}
	return out
}

func TestCleanModels(t *testing.T) {
	for name, build := range map[string]func() (*core.Model, error){
		"figure1": func() (*core.Model, error) {
			f, err := fixture.BuildFigure1()
			if err != nil {
				return nil, err
			}
			return f.Model, nil
		},
		"hoardingpermit": func() (*core.Model, error) {
			f, err := fixture.BuildHoardingPermit()
			if err != nil {
				return nil, err
			}
			return f.Model, nil
		},
	} {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := All(m)
		if r.HasErrors() {
			t.Errorf("%s: unexpected errors: %v", name, r.Errors())
		}
		// Warning-level findings are acceptable but this fixture should
		// produce none.
		for _, f := range r.Findings {
			t.Logf("%s: %s", name, f)
		}
	}
}

func TestNamespaceRules(t *testing.T) {
	m := core.NewModel("X")
	biz := m.AddBusinessLibrary("B")
	biz.AddLibrary(core.KindCCLibrary, "NoURN", "")
	a := biz.AddLibrary(core.KindBIELibrary, "A", "urn:dup")
	a.Version = "1.0"
	b := biz.AddLibrary(core.KindBIELibrary, "B", "urn:dup")
	_ = b // no version -> SEM-NS-3 warning

	r := Model(m)
	for _, want := range []string{"SEM-NS-1", "SEM-NS-2", "SEM-NS-3"} {
		if !hasRule(r, want) {
			t.Errorf("missing %s in %v", want, rules(r))
		}
	}
	if !r.HasErrors() {
		t.Error("namespace problems should be errors")
	}
}

func TestLibraryRules(t *testing.T) {
	m := core.NewModel("X")
	biz := m.AddBusinessLibrary("B")
	biz.AddLibrary(core.KindCCLibrary, "Dup", "urn:1")
	biz.AddLibrary(core.KindBIELibrary, "Dup", "urn:2") // SEM-LIB-1, SEM-LIB-2 (both empty)
	doc := biz.AddLibrary(core.KindDOCLibrary, "Doc", "urn:3")
	doc.Version = "1"
	// Empty DOC library -> SEM-LIB-3.
	enumLib := biz.AddLibrary(core.KindENUMLibrary, "Enums", "urn:4")
	enumLib.Version = "1"
	e, err := enumLib.AddENUM("Empty")
	if err != nil {
		t.Fatal(err)
	}
	_ = e // no literals -> SEM-ENUM-1
	d, err := enumLib.AddENUM("Dups")
	if err != nil {
		t.Fatal(err)
	}
	d.AddLiteral("A", "a").AddLiteral("A", "again") // SEM-ENUM-2

	r := Model(m)
	for _, want := range []string{"SEM-LIB-1", "SEM-LIB-2", "SEM-LIB-3", "SEM-ENUM-1", "SEM-ENUM-2"} {
		if !hasRule(r, want) {
			t.Errorf("missing %s in %v", want, rules(r))
		}
	}
}

func TestDuplicateElementNames(t *testing.T) {
	f := fixture.MustBuildFigure1()
	// Force a duplicate by direct slice manipulation (the API prevents
	// it).
	lib := f.USAddress.Library()
	lib.ABIEs = append(lib.ABIEs, lib.ABIEs[0])
	r := Model(f.Model)
	if !hasRule(r, "SEM-LIB-4") {
		t.Errorf("missing SEM-LIB-4 in %v", rules(r))
	}
}

func TestBrokenDerivations(t *testing.T) {
	f := fixture.MustBuildFigure1()

	// Sabotage: point US_Person's basedOn at Address.
	f.USPerson.BasedOn = f.Address
	r := Model(f.Model)
	// All BBIEs now reference BCCs of a foreign ACC, the ASBIE's ASCC is
	// foreign too.
	for _, want := range []string{"SEM-BBIE-2", "SEM-ASBIE-2"} {
		if !hasRule(r, want) {
			t.Errorf("missing %s in %v", want, rules(r))
		}
	}
	if !r.HasErrors() {
		t.Error("broken derivation must be an error")
	}
}

func TestBrokenQDT(t *testing.T) {
	f := fixture.MustBuildHoardingPermit()
	qdt := f.Model.FindQDT("CountryType")
	qdt.Sups = append(qdt.Sups, core.SupplementaryComponent{
		Name: "Invented",
		Type: f.Catalog.Prim(catalog.PrimString),
		Card: core.Cardinality{Lower: 1, Upper: 1},
	})
	r := Model(f.Model)
	if !hasRule(r, "SEM-QDT-1") {
		t.Errorf("missing SEM-QDT-1 in %v", rules(r))
	}
}

func TestNilMembers(t *testing.T) {
	f := fixture.MustBuildFigure1()
	us := f.USPerson
	us.BBIEs = append(us.BBIEs, &core.BBIE{Name: "Ghost"})
	us.ASBIEs = append(us.ASBIEs, &core.ASBIE{Role: "Ghost"})
	r := Model(f.Model)
	for _, want := range []string{"SEM-BBIE-1", "SEM-ASBIE-1"} {
		if !hasRule(r, want) {
			t.Errorf("missing %s in %v", want, rules(r))
		}
	}

	orphan := &core.ABIE{Name: "Orphan"}
	lib := f.USPerson.Library()
	lib.ABIEs = append(lib.ABIEs, orphan)
	r2 := Model(f.Model)
	if !hasRule(r2, "SEM-ABIE-1") {
		t.Errorf("missing SEM-ABIE-1 in %v", rules(r2))
	}
}

// TestValidateMalformedModels runs the whole engine over models whose
// links are missing or point outside the model: each must come back as
// findings, not a panic.
func TestValidateMalformedModels(t *testing.T) {
	want := map[string][]string{
		"untyped BCC":              {"SEM-BBIE-3", "BCC-1"},
		"untyped BBIE":             {"SEM-BBIE-4", "BBIE-1"},
		"untyped CDT content":      {"CDT-4"},
		"untyped CDT SUP":          {"CDT-4"},
		"untyped QDT content":      {"SEM-QDT-1", "QDT-4"},
		"untyped QDT SUP":          {"SEM-QDT-1", "QDT-4"},
		"QDT without CDT":          {"SEM-QDT-1", "SEM-BBIE-3", "QDT-3"},
		"ASBIE target without ACC": {"SEM-ABIE-1", "SEM-ASBIE-4", "ABIE-2"},
		"ABIE on foreign ACC":      {"SEM-BBIE-2", "SEM-ASBIE-4", "ABIE-2"},
		"BCC without owner":        {"SEM-BBIE-2"},
		"ASCC without owner":       {"SEM-ASBIE-2"},
		"ASCC without target":      {"SEM-ASBIE-4", "ASCC-1"},
	}
	for _, c := range fixture.MalformedHoardingPermits() {
		t.Run(c.Name, func(t *testing.T) {
			rules, ok := want[c.Name]
			if !ok {
				t.Fatalf("no expected findings for %q", c.Name)
			}
			r := All(c.Model)
			for _, rule := range rules {
				if !hasRule(r, rule) {
					t.Errorf("missing %s in %v", rule, r.Findings)
				}
			}
		})
	}
}

// buildCycle constructs two ABIEs referencing each other.
func buildCycle(t *testing.T, mandatory bool) *core.Model {
	t.Helper()
	m := core.NewModel("Cyc")
	biz := m.AddBusinessLibrary("B")
	cat, err := catalog.Install(biz)
	if err != nil {
		t.Fatal(err)
	}
	_ = cat
	ccLib := biz.AddLibrary(core.KindCCLibrary, "CC", "urn:cyc:cc")
	ccLib.Version = "1"
	bieLib := biz.AddLibrary(core.KindBIELibrary, "BIE", "urn:cyc:bie")
	bieLib.Version = "1"

	a, err := ccLib.AddACC("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ccLib.AddACC("B")
	if err != nil {
		t.Fatal(err)
	}
	card := core.Cardinality{Lower: 0, Upper: 1}
	if mandatory {
		card = core.Cardinality{Lower: 1, Upper: 1}
	}
	if _, err := a.AddASCC("Next", b, card, uml.AggregationComposite); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddASCC("Back", a, card, uml.AggregationComposite); err != nil {
		t.Fatal(err)
	}
	abieA, err := core.DeriveABIE(bieLib, a, core.Restriction{})
	if err != nil {
		t.Fatal(err)
	}
	abieB, err := core.DeriveABIE(bieLib, b, core.Restriction{})
	if err != nil {
		t.Fatal(err)
	}
	ascc := a.FindASCC("Next", "B")
	if _, err := abieA.AddASBIE("Next", ascc, abieB, card, uml.AggregationComposite); err != nil {
		t.Fatal(err)
	}
	ascc2 := b.FindASCC("Back", "A")
	if _, err := abieB.AddASBIE("Back", ascc2, abieA, card, uml.AggregationComposite); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOptionalCycleIsWarning(t *testing.T) {
	m := buildCycle(t, false)
	r := Model(m)
	if !hasRule(r, "SEM-CYC-2") {
		t.Errorf("missing SEM-CYC-2 in %v", rules(r))
	}
	if hasRule(r, "SEM-CYC-1") {
		t.Error("optional cycle must not be an error")
	}
	if r.HasErrors() {
		t.Errorf("optional cycle should not produce errors: %v", r.Errors())
	}
}

func TestMandatoryCycleIsError(t *testing.T) {
	m := buildCycle(t, true)
	r := Model(m)
	if !hasRule(r, "SEM-CYC-1") {
		t.Errorf("missing SEM-CYC-1 in %v", rules(r))
	}
	if !r.HasErrors() {
		t.Error("mandatory cycle must be an error")
	}
}

func TestUMLConstraintBridge(t *testing.T) {
	um := uml.NewModel("Bad")
	biz := um.AddPackage("B", profile.StBusinessLibrary)
	biz.AddPackage("CC", profile.StCCLibrary) // no baseURN -> LIB-1
	r := UML(um)
	if !hasRule(r, "LIB-1") {
		t.Errorf("missing LIB-1 in %v", rules(r))
	}
	if !r.HasErrors() {
		t.Error("constraint violations are errors")
	}
}

func TestSeverityAndFindingStrings(t *testing.T) {
	if Error.String() != "error" || Warning.String() != "warning" {
		t.Error("severity names wrong")
	}
	f := Finding{Rule: "SEM-X", Severity: Warning, Element: "Lib::A", Message: "oops"}
	s := f.String()
	for _, want := range []string{"warning", "SEM-X", "Lib::A", "oops"} {
		if !strings.Contains(s, want) {
			t.Errorf("finding string %q missing %q", s, want)
		}
	}
}

func TestReportAccessors(t *testing.T) {
	r := &Report{}
	if r.HasErrors() {
		t.Error("empty report has no errors")
	}
	r.add("A", Warning, "x", "w")
	if r.HasErrors() || len(r.Errors()) != 0 {
		t.Error("warnings are not errors")
	}
	r.add("B", Error, "y", "e")
	if !r.HasErrors() || len(r.Errors()) != 1 {
		t.Error("error accounting wrong")
	}
}

// TestImportedModelMatchesRenderedModel is the differential test of the
// model check that ccgen and ccserved run: the semantic rules on the
// typed model, then the profile's constraints on the imported UML model
// instead of on the typed model rendered back to UML. On every fixture
// export and on EasyBiz.xmi that extract, both give the same findings
// in the same order, so a model's diagnostics stay byte-identical.
func TestImportedModelMatchesRenderedModel(t *testing.T) {
	type input struct {
		name string
		data []byte
	}
	var inputs []input
	for _, n := range fixture.Corpus() {
		var buf bytes.Buffer
		if err := xmi.Export(profile.Render(n.Model), &buf); err != nil {
			t.Logf("%s: no export: %v", n.Name, err)
			continue
		}
		inputs = append(inputs, input{n.Name, buf.Bytes()})
	}
	easyBiz, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "EasyBiz.xmi"))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"EasyBiz", easyBiz})

	var extracted []string
	for _, in := range inputs {
		um, _, err := xmi.ImportBytes(in.data, xmi.ImportOptions{})
		var m *core.Model
		if err == nil {
			m, err = profile.Extract(um)
		}
		if err != nil {
			t.Logf("%s: no typed model: %v", in.name, err)
			continue
		}
		extracted = append(extracted, in.name)
		ix := core.NewModelIndex(m)
		got := ModelIndexed(m, ix)
		got.Findings = append(got.Findings, UML(um).Findings...)
		if want := AllIndexed(m, ix); !slices.Equal(got.Findings, want.Findings) {
			t.Errorf("%s: imported-model findings\n%v\nwant the rendered model's\n%v", in.name, got.Findings, want.Findings)
		}
	}
	for _, name := range []string{"HoardingPermit", "PurchaseOrder", "syn10", "syn100", "syn300", "EasyBiz"} {
		if !slices.Contains(extracted, name) {
			t.Errorf("%s did not extract; extracted %v", name, extracted)
		}
	}
}
