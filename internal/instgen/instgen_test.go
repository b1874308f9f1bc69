package instgen

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/xsd"
	"github.com/go-ccts/ccts/internal/xsdval"
)

// permitSet compiles the HoardingPermit schema set.
func permitSet(t *testing.T) (*xsdval.SchemaSet, string) {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.GenerateDocument(f.DOCLib, "HoardingPermit", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var schemas []*xsd.Schema
	for _, file := range res.Order {
		schemas = append(schemas, res.Schemas[file])
	}
	set, err := xsdval.NewSchemaSet(schemas...)
	if err != nil {
		t.Fatal(err)
	}
	return set, f.DOCLib.BaseURN
}

// TestGeneratedInstancesValidate is the core property: generated samples
// must validate against the schema set they came from, in both modes.
func TestGeneratedInstancesValidate(t *testing.T) {
	set, ns := permitSet(t)
	for _, mode := range []Mode{Minimal, Full} {
		doc, err := Generate(set, ns, "HoardingPermit", Options{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		res, err := set.ValidateString(doc)
		if err != nil {
			t.Fatalf("mode %v: %v\n%s", mode, err, doc)
		}
		for _, e := range res.Errors {
			t.Errorf("mode %v: generated instance invalid: %s", mode, e)
		}
	}
}

func TestMinimalOmitsOptional(t *testing.T) {
	set, ns := permitSet(t)
	minimal, err := Generate(set, ns, "HoardingPermit", Options{Mode: Minimal})
	if err != nil {
		t.Fatal(err)
	}
	// ClosureReason is optional: absent in minimal mode.
	if strings.Contains(minimal, "ClosureReason") {
		t.Error("minimal instance contains optional ClosureReason")
	}
	// IncludedRegistration is required: present.
	if !strings.Contains(minimal, "IncludedRegistration") {
		t.Error("minimal instance missing required IncludedRegistration")
	}

	full, err := Generate(set, ns, "HoardingPermit", Options{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full, "ClosureReason") {
		t.Error("full instance missing optional ClosureReason")
	}
	// Unbounded IncludedAttachment appears twice in full mode.
	if got := strings.Count(full, "<n1:IncludedAttachment>"); got != 2 {
		t.Errorf("IncludedAttachment count = %d, want 2\n%s", got, full)
	}
}

func TestEnumValuesComeFromEnumeration(t *testing.T) {
	set, ns := permitSet(t)
	full, err := Generate(set, ns, "HoardingPermit", Options{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	// CountryName content is enum-restricted; the first literal is USA.
	if !strings.Contains(full, ">USA<") {
		t.Errorf("enum sample value missing:\n%s", full)
	}
}

func TestRequiredAttributesEmitted(t *testing.T) {
	set, ns := permitSet(t)
	minimal, err := Generate(set, ns, "HoardingPermit", Options{Mode: Minimal})
	if err != nil {
		t.Fatal(err)
	}
	_ = minimal
	full, err := Generate(set, ns, "HoardingPermit", Options{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	// The Code CDT's required attributes appear on Type elements.
	if !strings.Contains(full, `CodeListAgName="sample"`) {
		t.Errorf("required attribute missing:\n%s", full)
	}
	// Optional LanguageIdentifier appears only in full mode.
	if !strings.Contains(full, `LanguageIdentifier=`) {
		t.Error("full mode should emit optional attributes")
	}
}

func TestGenerateErrors(t *testing.T) {
	set, ns := permitSet(t)
	if _, err := Generate(set, "urn:unknown", "X", Options{}); err == nil {
		t.Error("unknown namespace must fail")
	}
	if _, err := Generate(set, ns, "NoSuchRoot", Options{}); err == nil {
		t.Error("unknown root must fail")
	}
}

// TestSyntheticProperty: for synthetic models of arbitrary (small) size,
// generated instances always validate.
func TestSyntheticProperty(t *testing.T) {
	f := func(nRaw, bRaw uint8, chain bool) bool {
		n := int(nRaw%8) + 1
		bb := int(bRaw%5) + 1
		m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{
			ABIEs: n, BBIEsPerABIE: bb, Chain: chain,
		})
		if err != nil {
			return false
		}
		docLib := m.FindLibrary("SynDoc")
		res, err := gen.GenerateDocument(docLib, root.Name, gen.Options{})
		if err != nil {
			return false
		}
		var schemas []*xsd.Schema
		for _, file := range res.Order {
			schemas = append(schemas, res.Schemas[file])
		}
		set, err := xsdval.NewSchemaSet(schemas...)
		if err != nil {
			return false
		}
		for _, mode := range []Mode{Minimal, Full} {
			doc, err := Generate(set, docLib.BaseURN, "Document", Options{Mode: mode})
			if err != nil {
				return false
			}
			vres, err := set.ValidateString(doc)
			if err != nil || !vres.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSampleValues(t *testing.T) {
	cases := map[string]string{
		"boolean":      "true",
		"integer":      "1",
		"decimal":      "1.0",
		"double":       "1.5",
		"date":         "2007-04-15",
		"time":         "12:00:00",
		"dateTime":     "2007-04-15T12:00:00",
		"duration":     "P1D",
		"base64Binary": "c2FtcGxl",
		"string":       "sample",
		"token":        "sample",
	}
	for builtin, want := range cases {
		if got := sampleValue(builtin, nil); got != want {
			t.Errorf("sampleValue(%s) = %q, want %q", builtin, got, want)
		}
	}
	// Length facets are honoured.
	minL := 10
	v := sampleValue("string", &xsd.Restriction{MinLength: &minL})
	if len(v) < 10 {
		t.Errorf("minLength not honoured: %q", v)
	}
	maxL := 3
	v = sampleValue("string", &xsd.Restriction{MaxLength: &maxL})
	if len(v) > 3 {
		t.Errorf("maxLength not honoured: %q", v)
	}
	// Digit patterns.
	v = sampleValue("token", &xsd.Restriction{Pattern: "[0-9]{4}"})
	if v != "1111" {
		t.Errorf("pattern digits = %q", v)
	}
}

// TestHandWrittenSchemaShapes covers element shapes the NDR generator
// never emits: builtin-typed elements, simple-type elements, untyped
// elements, global refs, pattern facets and special characters.
func TestHandWrittenSchemaShapes(t *testing.T) {
	s := xsd.NewSchema("urn:h")
	_ = s.DeclareNamespace("h", "urn:h")
	s.SimpleTypes = append(s.SimpleTypes,
		&xsd.SimpleType{Name: "ColorType", Restriction: &xsd.Restriction{
			Base: "xsd:token", Enumerations: []string{"red", "green"},
		}},
		&xsd.SimpleType{Name: "PlainType", Restriction: &xsd.Restriction{
			Base: "xsd:string",
		}},
		&xsd.SimpleType{Name: "CodeType", Restriction: &xsd.Restriction{
			Base: "xsd:token", Pattern: "[0-9]{6}",
		}},
		&xsd.SimpleType{Name: "BareType"}, // no restriction at all
	)
	s.ComplexTypes = append(s.ComplexTypes, &xsd.ComplexType{
		Name: "BoxType",
		Sequence: []*xsd.Element{
			{Name: "Count", Type: "xsd:integer"},
			{Name: "When", Type: "xsd:dateTime"},
			{Name: "Color", Type: "h:ColorType"},
			{Name: "Plain", Type: "h:PlainType"},
			{Name: "Code", Type: "h:CodeType"},
			{Name: "Bare", Type: "h:BareType"},
			{Name: "Untyped"},
			{Ref: "h:Label"},
		},
	})
	s.Elements = append(s.Elements,
		&xsd.Element{Name: "Box", Type: "h:BoxType"},
		&xsd.Element{Name: "Label", Type: "xsd:string"},
	)
	set, err := xsdval.NewSchemaSet(s)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Generate(set, "urn:h", "Box", Options{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<n1:Count>1</n1:Count>",
		"<n1:When>2007-04-15T12:00:00</n1:When>",
		"<n1:Color>red</n1:Color>",
		"<n1:Code>111111</n1:Code>", // 6-digit pattern honoured
		"<n1:Label>sample</n1:Label>",
		"<n1:Untyped/>",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("instance missing %q:\n%s", want, doc)
		}
	}
	// The instance it produced validates.
	res, err := set.ValidateString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid() {
		t.Errorf("hand-written schema instance invalid: %v", res.Errors)
	}
}

// TestEscape renders a value that needs escaping as an attribute, as
// text and as a namespace URI, and reads it back with encoding/xml.
func TestEscape(t *testing.T) {
	v := "a&b<c>\"d\\e\tf\ng\u00a0h"
	ns := `urn:x?a=1&b=\`
	g := &generator{prefixes: map[string]string{}}
	var b bytes.Buffer
	g.render(&b, &node{name: "E", ns: ns, attrs: []attrValue{{name: "v", value: v}}, text: v}, 0, true)
	var got struct {
		XMLName xml.Name
		V       string `xml:"v,attr"`
		Text    string `xml:",chardata"`
	}
	if err := xml.Unmarshal(b.Bytes(), &got); err != nil {
		t.Fatalf("%v in %s", err, b.String())
	}
	if got.V != v || got.Text != v || got.XMLName.Space != ns {
		t.Errorf("read back attribute %q, text %q, namespace %q; want %q and %q", got.V, got.Text, got.XMLName.Space, v, ns)
	}
}

func TestDepthBound(t *testing.T) {
	// A self-recursive optional schema terminates at the depth bound.
	s := xsd.NewSchema("urn:r")
	_ = s.DeclareNamespace("r", "urn:r")
	s.ComplexTypes = append(s.ComplexTypes, &xsd.ComplexType{
		Name: "NodeType",
		Sequence: []*xsd.Element{
			{Name: "Child", Type: "r:NodeType", Occurs: xsd.Occurs{Min: 1, Max: 1}},
		},
	})
	s.Elements = append(s.Elements, &xsd.Element{Name: "Node", Type: "r:NodeType"})
	set, err := xsdval.NewSchemaSet(s)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Generate(set, "urn:r", "Node", Options{Mode: Minimal, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(doc, "<n1:Child>"); got > 4 {
		t.Errorf("depth bound ignored: %d nested children", got)
	}
}

func TestGeneratedInstanceIsWellFormed(t *testing.T) {
	set, ns := permitSet(t)
	doc, err := Generate(set, ns, "HoardingPermit", Options{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(doc, `<?xml version="1.0" encoding="UTF-8"?>`) {
		t.Error("missing XML declaration")
	}
	// Re-validating implies well-formedness; also ensure namespaces are
	// all declared on the root.
	if !strings.Contains(doc, `xmlns:n1=`) {
		t.Error("namespace declarations missing")
	}
}
