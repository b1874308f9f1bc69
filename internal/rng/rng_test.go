package rng

import (
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
)

// grammarOf generates the grammar of lib's plan; root selects the root
// ABIE of a DOCLibrary.
func grammarOf(lib *core.Library, root string) (*grammar, error) {
	p, err := gen.NewPlan(lib, root, gen.Options{})
	if err != nil {
		return nil, err
	}
	return generate(p)
}

// String serialises the grammar for assertions.
func (g *grammar) String() string { return string(g.bytes()) }

// names lists the grammar's production names in order.
func (g *grammar) names() []string {
	out := make([]string, len(g.defines))
	for i, d := range g.defines {
		out[i] = d.name
	}
	return out
}

func docGrammar(t *testing.T) *grammar {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	g, err := grammarOf(f.DOCLib, "HoardingPermit")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateDocument(t *testing.T) {
	g := docGrammar(t)
	out := g.String()
	for _, want := range []string{
		`<grammar xmlns="http://relaxng.org/ns/structure/1.0" datatypeLibrary="http://www.w3.org/2001/XMLSchema-datatypes">`,
		`<start>`,
		`<ref name="start.HoardingPermit"/>`,
		`<define name="start.HoardingPermit">`,
		`<element name="HoardingPermit" ns="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit">`,
		`<define name="doc.HoardingPermitType">`,
		// Optional BBIE.
		`<optional>`,
		`<element name="ClosureReason" ns="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit">`,
		// Unbounded ASBIE.
		`<zeroOrMore>`,
		`<element name="IncludedAttachment"`,
		// Cross-library references carry prefixed define names.
		`<ref name="commonAggregates.AttachmentType"/>`,
		`<ref name="bie2.RegistrationType"/>`,
		// Data types become data patterns with attribute patterns.
		`<define name="cdt1.TextType">`,
		`<data type="string"/>`,
		`<attribute name="CodeListAgName">`,
		// Enumerations become value choices.
		`<define name="enum1.CountryType_CodeType">`,
		`<value>AUS</value>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("grammar missing %q", want)
		}
	}
	// HoardingDetails is unreachable from the root.
	if strings.Contains(out, "HoardingDetails") {
		t.Error("unreachable HoardingDetails must not be generated")
	}
}

func TestGrammarIsWellFormedXML(t *testing.T) {
	out := docGrammar(t).String()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("grammar is not well-formed XML: %v", err)
		}
	}
}

func TestAllRefsResolve(t *testing.T) {
	g := docGrammar(t)
	defined := map[string]bool{}
	for _, n := range g.names() {
		defined[n] = true
	}
	// Collect every ref name from the serialised grammar.
	out := g.String()
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, `<ref name="`) {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(line, `<ref name="`), `"/>`)
		if !defined[name] {
			t.Errorf("dangling ref %q", name)
		}
	}
}

func TestGenerateLibraries(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	// BIE library: one define per ABIE.
	g, err := grammarOf(f.Common, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"commonAggregates.SignatureType", "commonAggregates.AddressType",
		"commonAggregates.Person_IdentificationType",
		"commonAggregates.ApplicationType", "commonAggregates.AttachmentType",
	} {
		if !g.byName[want] {
			t.Errorf("missing define %q in %v", want, g.names())
		}
	}
	// CDT library.
	g2, err := grammarOf(f.Catalog.CDTLibrary, "")
	if err != nil {
		t.Fatal(err)
	}
	if !g2.byName["cdt1.CodeType"] {
		t.Errorf("missing cdt1.CodeType in %v", g2.names())
	}
	out := g2.String()
	if !strings.Contains(out, `<data type="date"/>`) {
		t.Error("Date CDT should map to the date datatype")
	}
	// QDT library pulls in the enums.
	g3, err := grammarOf(f.QDTLib, "")
	if err != nil {
		t.Fatal(err)
	}
	if !g3.byName["enum1.CouncilType_CodeType"] {
		t.Errorf("QDT generation should emit enum defines: %v", g3.names())
	}
	// ENUM library alone.
	g4, err := grammarOf(f.EnumLib, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(g4.names()) != 2 {
		t.Errorf("enum defines = %v", g4.names())
	}
}

func TestGenerateErrors(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grammarOf(nil, "X"); err == nil {
		t.Error("nil library must fail")
	}
	if _, err := grammarOf(f.DOCLib, "Nope"); err == nil {
		t.Error("unknown root must fail")
	}
	if _, err := grammarOf(f.CCLib, ""); err == nil {
		t.Error("CC library must fail")
	}
	if _, err := grammarOf(f.DOCLib, ""); err == nil {
		t.Error("DOC library without a root must fail")
	}
}

func TestDeterministic(t *testing.T) {
	a := docGrammar(t).String()
	b := docGrammar(t).String()
	if a != b {
		t.Error("grammar generation is not deterministic")
	}
}

func TestRecursiveModelTerminates(t *testing.T) {
	m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{ABIEs: 5, BBIEsPerABIE: 2, Chain: true})
	if err != nil {
		t.Fatal(err)
	}
	docLib := m.FindLibrary("SynDoc")
	g, err := grammarOf(docLib, root.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.names()) == 0 {
		t.Error("no defines generated")
	}
}

func TestEmptyABIE(t *testing.T) {
	f, err := fixture.BuildFigure1()
	if err != nil {
		t.Fatal(err)
	}
	lib := f.USPerson.Library()
	empty, err := lib.AddABIE("EmptyOne", f.Person)
	if err != nil {
		t.Fatal(err)
	}
	_ = empty
	g, err := grammarOf(lib, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "<empty/>") {
		t.Error("empty ABIE should produce an empty pattern")
	}
}

// TestValuesReadBack generates a grammar whose enumeration values and
// element namespace hold characters Go quoting would mangle, and reads
// them back with encoding/xml.
func TestValuesReadBack(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	const value, ns = "C:\\dir\u00a0x\ty&<\">", "urn:a\\b\u00a0c"
	f.Model.FindENUM("CountryType_Code").Literals[0].Name = value
	f.DOCLib.BaseURN = ns
	g, err := grammarOf(f.DOCLib, "HoardingPermit")
	if err != nil {
		t.Fatal(err)
	}
	attrs, text := readBack(t, g.String())
	if !attrs[ns] {
		t.Errorf("namespace %q not read back", ns)
	}
	if !text[value] {
		t.Errorf("enumeration value %q not read back", value)
	}
}

// readBack parses doc with encoding/xml and returns the set of its
// attribute values and of its non-blank character data.
func readBack(t *testing.T, doc string) (attrs, text map[string]bool) {
	t.Helper()
	attrs, text = map[string]bool{}, map[string]bool{}
	d := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return attrs, text
		}
		if err != nil {
			t.Fatalf("%v in:\n%s", err, doc)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			for _, a := range tok.Attr {
				attrs[a.Value] = true
			}
		case xml.CharData:
			if s := string(tok); strings.TrimSpace(s) != "" {
				text[s] = true
			}
		}
	}
}
