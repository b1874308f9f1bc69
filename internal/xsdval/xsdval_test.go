package xsdval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/xsd"
)

// permitSet generates the HoardingPermit schema set and compiles it.
func permitSet(t *testing.T) *SchemaSet {
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
	ss, err := NewSchemaSet(schemas...)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// validPermit is a conforming HoardingPermit message.
const validPermit = `<?xml version="1.0"?>
<doc:HoardingPermit
    xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"
    xmlns:ca="urn:au:gov:vic:easybiz:data:draft:CommonAggregates"
    xmlns:ll="urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates">
  <doc:ClosureReason>Scaffolding over footpath</doc:ClosureReason>
  <doc:IsClosedFootpath>yes</doc:IsClosedFootpath>
  <doc:IncludedAttachment>
    <ca:Description>Site plan</ca:Description>
  </doc:IncludedAttachment>
  <doc:IncludedAttachment>
    <ca:Description>Traffic plan</ca:Description>
  </doc:IncludedAttachment>
  <doc:CurrentApplication>
    <ca:CreatedDate>2006-11-29</ca:CreatedDate>
    <ca:Type CodeListAgName="easybiz" CodeListName="permits" CodeListSchemeURI="urn:x">HOARD</ca:Type>
  </doc:CurrentApplication>
  <doc:IncludedRegistration>
    <ll:Type>local</ll:Type>
  </doc:IncludedRegistration>
  <doc:BillingPerson_Identification>
    <ca:Designation>AU-552-19</ca:Designation>
    <ca:PersonalSignature>
      <ca:Date>2006-11-29T15:06:48</ca:Date>
    </ca:PersonalSignature>
    <ca:AssignedAddress>
      <ca:CountryName CodeListName="iso3166">AUS</ca:CountryName>
    </ca:AssignedAddress>
  </doc:BillingPerson_Identification>
</doc:HoardingPermit>`

func validate(t *testing.T, ss *SchemaSet, doc string) *Result {
	t.Helper()
	res, err := ss.ValidateString(doc)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return res
}

func TestValidDocument(t *testing.T) {
	ss := permitSet(t)
	res := validate(t, ss, validPermit)
	for _, e := range res.Errors {
		t.Errorf("unexpected: %s", e)
	}
	if !res.Valid() {
		t.Error("document should be valid")
	}
}

// mutate rewrites the valid document and expects a specific error
// fragment.
func expectError(t *testing.T, ss *SchemaSet, doc, wantFragment string) {
	t.Helper()
	res := validate(t, ss, doc)
	if res.Valid() {
		t.Errorf("document should be invalid (want %q)", wantFragment)
		return
	}
	for _, e := range res.Errors {
		if strings.Contains(e.Error(), wantFragment) {
			return
		}
	}
	t.Errorf("no error containing %q; got %v", wantFragment, res.Errors)
}

func TestMissingRequiredChild(t *testing.T) {
	ss := permitSet(t)
	// IncludedRegistration is required (card 1).
	doc := strings.Replace(validPermit,
		"<doc:IncludedRegistration>\n    <ll:Type>local</ll:Type>\n  </doc:IncludedRegistration>", "", 1)
	expectError(t, ss, doc, `element "IncludedRegistration" occurs 0 time(s)`)
}

func TestTooManyOccurrences(t *testing.T) {
	ss := permitSet(t)
	dup := strings.Replace(validPermit,
		"<doc:ClosureReason>Scaffolding over footpath</doc:ClosureReason>",
		"<doc:ClosureReason>a</doc:ClosureReason><doc:ClosureReason>b</doc:ClosureReason>", 1)
	expectError(t, ss, dup, `element "ClosureReason" occurs 2 time(s)`)
}

func TestWrongOrder(t *testing.T) {
	ss := permitSet(t)
	// Move ClosureReason after IsClosedFootpath: sequence order is fixed.
	doc := strings.Replace(validPermit,
		"<doc:ClosureReason>Scaffolding over footpath</doc:ClosureReason>\n  <doc:IsClosedFootpath>yes</doc:IsClosedFootpath>",
		"<doc:IsClosedFootpath>yes</doc:IsClosedFootpath>\n  <doc:ClosureReason>Scaffolding over footpath</doc:ClosureReason>", 1)
	expectError(t, ss, doc, `unexpected element "ClosureReason"`)
}

func TestUnknownElement(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit, "</doc:HoardingPermit>",
		"<doc:Invented/></doc:HoardingPermit>", 1)
	expectError(t, ss, doc, `unexpected element "Invented"`)
}

func TestMissingRequiredAttribute(t *testing.T) {
	ss := permitSet(t)
	// ca:Type uses the Code CDT: CodeListAgName is required.
	doc := strings.Replace(validPermit,
		`CodeListAgName="easybiz" `, "", 1)
	expectError(t, ss, doc, `missing required attribute "CodeListAgName"`)
}

func TestUndeclaredAttribute(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit,
		`<ca:Designation>`, `<ca:Designation bogus="1">`, 1)
	expectError(t, ss, doc, `undeclared attribute "bogus"`)
}

func TestEnumerationViolation(t *testing.T) {
	ss := permitSet(t)
	// CountryName content is restricted to the CountryType_Code enum.
	doc := strings.Replace(validPermit, ">AUS<", ">XYZ<", 1)
	expectError(t, ss, doc, `value "XYZ" is not one of the enumerated values`)
}

func TestEnumerationAllValues(t *testing.T) {
	ss := permitSet(t)
	for _, code := range []string{"USA", "AUT", "AUS"} {
		doc := strings.Replace(validPermit, ">AUS<", ">"+code+"<", 1)
		if res := validate(t, ss, doc); !res.Valid() {
			t.Errorf("country %s rejected: %v", code, res.Errors)
		}
	}
}

func TestDateTimeFormat(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit, "2006-11-29T15:06:48", "yesterday", 1)
	expectError(t, ss, doc, "is not a valid xsd:dateTime")
}

func TestTextInComplexElement(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit, "<doc:IncludedRegistration>",
		"<doc:IncludedRegistration>stray text", 1)
	expectError(t, ss, doc, "unexpected text content")
}

func TestMalformedXML(t *testing.T) {
	ss := permitSet(t)
	if _, err := ss.ValidateString("<open>"); err == nil {
		t.Error("malformed XML should be a hard error")
	}
	if _, err := ss.ValidateString(""); err == nil {
		t.Error("empty document should be a hard error")
	}
}

func TestUnknownRoot(t *testing.T) {
	ss := permitSet(t)
	if _, err := ss.ValidateString(`<x xmlns="urn:unknown"/>`); err == nil {
		t.Error("unknown root namespace should be a hard error")
	}
	if _, err := ss.ValidateString(
		`<x xmlns="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"/>`); err == nil {
		t.Error("undeclared root element should be a hard error")
	}
}

func TestSchemaSetErrors(t *testing.T) {
	s1 := xsd.NewSchema("urn:a")
	s2 := xsd.NewSchema("urn:a")
	if _, err := NewSchemaSet(s1, s2); err == nil {
		t.Error("duplicate namespace should fail")
	}
	s3 := xsd.NewSchema("")
	if _, err := NewSchemaSet(s3); err == nil {
		t.Error("empty namespace should fail")
	}
	ss, err := NewSchemaSet(s1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Schema("urn:a") != s1 || ss.Schema("urn:b") != nil {
		t.Error("Schema lookup broken")
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		builtin string
		value   string
		ok      bool
	}{
		{"string", "anything at all", true},
		{"boolean", "true", true},
		{"boolean", "1", true},
		{"boolean", "yes", false},
		{"integer", "-42", true},
		{"integer", "4.2", false},
		{"decimal", "3.14", true},
		{"decimal", "pi", false},
		{"double", "6.02e23", true},
		{"double", "INF", true},
		{"double", "1..2", false},
		{"date", "2026-07-05", true},
		{"date", "05/07/2026", false},
		{"time", "12:34:56", true},
		{"time", "noon", false},
		{"dateTime", "2026-07-05T12:00:00Z", true},
		{"dateTime", "2026-07-05", false},
		{"duration", "P1Y2M3DT4H5M6S", true},
		{"duration", "P", false},
		{"base64Binary", "aGVsbG8=", true},
		{"base64Binary", "!!!", false},
		{"madeUpType", "whatever", true}, // unknown builtins accepted
	}
	for _, c := range cases {
		res := &Result{}
		validateBuiltin(res, "/x", c.value, c.builtin)
		if got := res.Valid(); got != c.ok {
			t.Errorf("builtin %s value %q: valid=%v, want %v (%v)", c.builtin, c.value, got, c.ok, res.Errors)
		}
	}
}

func TestCollapse(t *testing.T) {
	if got := collapse("  a \n b\t c  "); got != "a b c" {
		t.Errorf("collapse = %q", got)
	}
}

func TestFacetValidation(t *testing.T) {
	s := xsd.NewSchema("urn:f")
	_ = s.DeclareNamespace("f", "urn:f")
	s.SimpleTypes = append(s.SimpleTypes, &xsd.SimpleType{
		Name: "PostcodeType",
		Restriction: &xsd.Restriction{
			Base:    "xsd:token",
			Pattern: "[0-9]{4}",
		},
	})
	minL, maxL := 2, 4
	s.SimpleTypes = append(s.SimpleTypes, &xsd.SimpleType{
		Name: "ShortType",
		Restriction: &xsd.Restriction{
			Base:      "xsd:string",
			MinLength: &minL,
			MaxLength: &maxL,
		},
	})
	s.Elements = append(s.Elements,
		&xsd.Element{Name: "Postcode", Type: "f:PostcodeType"},
		&xsd.Element{Name: "Short", Type: "f:ShortType"},
	)
	ss, err := NewSchemaSet(s)
	if err != nil {
		t.Fatal(err)
	}
	valid := []string{
		`<Postcode xmlns="urn:f">3000</Postcode>`,
		`<Short xmlns="urn:f">abc</Short>`,
	}
	for _, doc := range valid {
		if res := validate(t, ss, doc); !res.Valid() {
			t.Errorf("%s rejected: %v", doc, res.Errors)
		}
	}
	expectError(t, ss, `<Postcode xmlns="urn:f">30</Postcode>`, "does not match pattern")
	expectError(t, ss, `<Short xmlns="urn:f">x</Short>`, "shorter than minLength")
	expectError(t, ss, `<Short xmlns="urn:f">abcdef</Short>`, "longer than maxLength")
}

// TestHandWrittenSchemaShapes exercises element declaration shapes the
// generator never emits but hand-written schemas use: builtin-typed
// elements, simple-type elements, untyped elements and element refs at
// top level.
func TestHandWrittenSchemaShapes(t *testing.T) {
	s := xsd.NewSchema("urn:h")
	_ = s.DeclareNamespace("h", "urn:h")
	s.SimpleTypes = append(s.SimpleTypes, &xsd.SimpleType{
		Name: "ColorType",
		Restriction: &xsd.Restriction{
			Base:         "xsd:token",
			Enumerations: []string{"red", "green"},
		},
	})
	s.ComplexTypes = append(s.ComplexTypes, &xsd.ComplexType{
		Name: "BoxType",
		Sequence: []*xsd.Element{
			{Name: "Count", Type: "xsd:integer"},
			{Name: "Color", Type: "h:ColorType", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
			{Name: "Anything", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}}, // untyped
			{Ref: "h:Label", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
		},
	})
	s.Elements = append(s.Elements,
		&xsd.Element{Name: "Box", Type: "h:BoxType"},
		&xsd.Element{Name: "Label", Type: "xsd:string"},
		&xsd.Element{Name: "Bare"}, // untyped global
	)
	ss, err := NewSchemaSet(s)
	if err != nil {
		t.Fatal(err)
	}

	valid := []string{
		`<Box xmlns="urn:h"><Count>3</Count><Color>red</Color></Box>`,
		`<Box xmlns="urn:h"><Count>3</Count><Anything><x xmlns=""/></Anything></Box>`,
		`<Box xmlns="urn:h"><Count>3</Count><Label>hello</Label></Box>`,
		`<Label xmlns="urn:h">top level</Label>`,
		`<Bare xmlns="urn:h"><free xmlns=""/></Bare>`,
	}
	for _, doc := range valid {
		if res := validate(t, ss, doc); !res.Valid() {
			t.Errorf("%s rejected: %v", doc, res.Errors)
		}
	}
	expectError(t, ss, `<Box xmlns="urn:h"><Count>three</Count></Box>`, "not a valid xsd:integer")
	expectError(t, ss, `<Box xmlns="urn:h"><Count>1</Count><Color>blue</Color></Box>`, "enumerated values")
	expectError(t, ss, `<Box xmlns="urn:h"><Count>1</Count><Color>red<extra/></Color></Box>`, "child elements")
	expectError(t, ss, `<Label xmlns="urn:h"><nested/></Label>`, "child elements")
	// Simple-type element with attributes.
	expectError(t, ss, `<Box xmlns="urn:h"><Count>1</Count><Color bogus="1">red</Color></Box>`, "unexpected attributes")
}

func TestBrokenSchemaReferences(t *testing.T) {
	s := xsd.NewSchema("urn:b")
	_ = s.DeclareNamespace("b", "urn:b")
	_ = s.DeclareNamespace("m", "urn:missing")
	s.ComplexTypes = append(s.ComplexTypes, &xsd.ComplexType{
		Name: "RootType",
		Sequence: []*xsd.Element{
			{Name: "MissingType", Type: "b:Nope", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
			{Name: "MissingNS", Type: "m:Thing", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
			{Name: "BadPrefix", Type: "zz:Thing", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
			{Ref: "b:NoSuchGlobal", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
			{Ref: "m:NoSchema", Occurs: xsd.Occurs{Min: 0, Max: 1, Explicit: true}},
		},
	})
	s.Elements = append(s.Elements, &xsd.Element{Name: "Root", Type: "b:RootType"})
	ss, err := NewSchemaSet(s)
	if err != nil {
		t.Fatal(err)
	}
	for frag, doc := range map[string]string{
		`type "Nope" not found`:   `<Root xmlns="urn:b"><MissingType>x</MissingType></Root>`,
		`no schema for namespace`: `<Root xmlns="urn:b"><MissingNS>x</MissingNS></Root>`,
		`undeclared prefix "zz"`:  `<Root xmlns="urn:b"><BadPrefix>x</BadPrefix></Root>`,
	} {
		expectError(t, ss, doc, frag)
	}
	// Broken particle refs surface when the sequence is validated.
	res := validate(t, ss, `<Root xmlns="urn:b"/>`)
	joined := ""
	for _, e := range res.Errors {
		joined += e.Error() + "\n"
	}
	if !strings.Contains(joined, "NoSuchGlobal") && !strings.Contains(joined, "no schema for ref namespace") {
		t.Errorf("particle ref errors missing: %s", joined)
	}
}

func TestComplexTypeUsedAsValue(t *testing.T) {
	// An attribute typed by a sequence complex type is a schema bug the
	// validator reports.
	s := xsd.NewSchema("urn:v")
	_ = s.DeclareNamespace("v", "urn:v")
	s.ComplexTypes = append(s.ComplexTypes,
		&xsd.ComplexType{Name: "SeqType", Sequence: nil},
		&xsd.ComplexType{Name: "WrapType", SimpleContent: &xsd.SimpleContent{
			Extension: &xsd.Extension{Base: "v:SeqType"},
		}},
	)
	s.Elements = append(s.Elements, &xsd.Element{Name: "W", Type: "v:WrapType"})
	ss, err := NewSchemaSet(s)
	if err != nil {
		t.Fatal(err)
	}
	expectError(t, ss, `<W xmlns="urn:v">x</W>`, "not a simple type")
}

func TestErrorPathsAreUseful(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit, ">AUS<", ">XYZ<", 1)
	res := validate(t, ss, doc)
	found := false
	for _, e := range res.Errors {
		if strings.Contains(e.Path, "/HoardingPermit/BillingPerson_Identification/AssignedAddress/CountryName") {
			found = true
		}
	}
	if !found {
		t.Errorf("error paths not hierarchical: %v", res.Errors)
	}
}

func TestErrorOffsets(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit, ">AUS<", ">XYZ<", 1)
	res := validate(t, ss, doc)
	if res.Valid() {
		t.Fatal("expected errors")
	}
	for _, e := range res.Errors {
		if e.Offset <= 0 {
			t.Errorf("error without offset: %+v", e)
			continue
		}
		if !strings.Contains(e.Error(), "byte ") {
			t.Errorf("error string lacks offset: %s", e.Error())
		}
		// The offset points inside the document, near the CountryName
		// element.
		if int(e.Offset) > len(doc) {
			t.Errorf("offset %d beyond document length %d", e.Offset, len(doc))
		}
	}
	// The enum violation's offset lands after the CountryName start tag.
	idx := strings.Index(doc, "<ca:CountryName")
	found := false
	for _, e := range res.Errors {
		if strings.Contains(e.Message, "XYZ") && int(e.Offset) > idx {
			found = true
		}
	}
	if !found {
		t.Errorf("enum violation offset not near CountryName (tag at %d): %v", idx, res.Errors)
	}
}

func TestXSINamespaceIgnored(t *testing.T) {
	ss := permitSet(t)
	doc := strings.Replace(validPermit, "<doc:HoardingPermit",
		`<doc:HoardingPermit xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:schemaLocation="urn:x x.xsd"`, 1)
	if res := validate(t, ss, doc); !res.Valid() {
		t.Errorf("xsi attributes must be ignored: %v", res.Errors)
	}
}

// TestSchemaSetRejectsInconsistentDeclarations: a sequence holding two
// element particles of one name with different types breaks XSD's
// Element Declarations Consistent rule, and the error names both.
func TestSchemaSetRejectsInconsistentDeclarations(t *testing.T) {
	build := func(second *xsd.Element) *xsd.Schema {
		s := xsd.NewSchema("urn:o")
		_ = s.DeclareNamespace("o", "urn:o")
		s.ComplexTypes = append(s.ComplexTypes, &xsd.ComplexType{
			Name: "OrderType",
			Sequence: []*xsd.Element{
				{Name: "GrossWeight", Type: "xsd:string"},
				{Name: "Note", Type: "xsd:string"},
				second,
			},
		})
		s.Elements = append(s.Elements,
			&xsd.Element{Name: "Order", Type: "o:OrderType"},
			&xsd.Element{Name: "GrossWeight", Type: "xsd:integer"})
		return s
	}
	for _, second := range []*xsd.Element{
		{Name: "GrossWeight", Type: "xsd:integer"},
		{Ref: "o:GrossWeight"},
	} {
		_, err := NewSchemaSet(build(second))
		if err == nil {
			t.Errorf("particle %+v: inconsistent declarations compiled", second)
			continue
		}
		for _, want := range []string{"OrderType", "{urn:o}GrossWeight", "particle 1 of type {" + xsd.XSDNamespace + "}string", "particle 3 of type {" + xsd.XSDNamespace + "}integer"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
	// Types of one local name in two namespaces differ too.
	s := build(&xsd.Element{Name: "GrossWeight", Type: "p:string"})
	_ = s.DeclareNamespace("p", "urn:p")
	if _, err := NewSchemaSet(s); err == nil || !strings.Contains(err.Error(), "particle 3 of type {urn:p}string") {
		t.Errorf("string of two namespaces: err = %v", err)
	}
	// The same name with the same type, spelt differently, is consistent.
	if _, err := NewSchemaSet(build(&xsd.Element{Name: "GrossWeight", Type: "xs:string"})); err != nil {
		t.Errorf("consistent repeat rejected: %v", err)
	}
}

// TestGoldenSchemaSetsCompile: every committed XSD golden set still
// compiles into a schema set.
func TestGoldenSchemaSetsCompile(t *testing.T) {
	for _, dir := range []string{
		"../../testdata/golden",
		"../../testdata/golden/escapes/xsd",
		"../../testdata/golden/libraries/CommonAggregates/xsd",
		"../../testdata/golden/libraries/coredatatypes/xsd",
		"../../testdata/golden/purchaseorder/xsd",
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.xsd"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no schemas (%v)", dir, err)
		}
		var schemas []*xsd.Schema
		for _, file := range files {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := xsd.Parse(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			schemas = append(schemas, s)
		}
		if _, err := NewSchemaSet(schemas...); err != nil {
			t.Errorf("%s: %v", dir, err)
		}
	}
}
