package xsd

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/xmlesc"
)

// sampleSchema builds a schema exercising every construct the writer
// knows: imports, a CDT-style simpleContent type, an ABIE-style sequence
// type, an enumeration simple type and a global root element.
func sampleSchema() *Schema {
	s := NewSchema("urn:test:doc")
	s.Version = "0.2"
	_ = s.DeclareNamespace("doc", "urn:test:doc")
	_ = s.DeclareNamespace("cdt1", "urn:test:cdt")
	_ = s.DeclareNamespace("ccts", CCTSDocumentationNamespace)
	s.Imports = append(s.Imports, Import{Namespace: "urn:test:cdt", SchemaLocation: "cdt_1.0.xsd"})

	s.SimpleTypes = append(s.SimpleTypes, &SimpleType{
		Name: "CountryType_CodeType",
		Restriction: &Restriction{
			Base:         "xsd:token",
			Enumerations: []string{"USA", "AUT", "AUS"},
		},
	})
	s.ComplexTypes = append(s.ComplexTypes, &ComplexType{
		Name: "CodeType",
		SimpleContent: &SimpleContent{Extension: &Extension{
			Base: "xsd:string",
			Attributes: []*Attribute{
				{Name: "CodeListAgName", Type: "xsd:string", Use: "required"},
				{Name: "LanguageIdentifier", Type: "xsd:string", Use: "optional"},
			},
		}},
	})
	s.ComplexTypes = append(s.ComplexTypes, &ComplexType{
		Name: "PermitType",
		Annotation: &Annotation{Documentation: []DocEntry{
			{Tag: "Version", Value: "0.4"},
			{Tag: "Definition", Value: "A permit for hoarding <structures>."},
		}},
		Sequence: []*Element{
			{Name: "ClosureReason", Type: "cdt1:TextType", Occurs: Occurs{Min: 0, Max: 1, Explicit: true}},
			{Name: "IncludedAttachment", Type: "doc:AttachmentType", Occurs: Occurs{Min: 0, Max: Unbounded}},
			{Ref: "doc:AssignedAddress"},
		},
	})
	s.Elements = append(s.Elements, &Element{Name: "Permit", Type: "doc:PermitType"})
	s.Elements = append(s.Elements, &Element{Name: "AssignedAddress", Type: "doc:PermitType"})
	return s
}

func TestWriterOutput(t *testing.T) {
	out := sampleSchema().String()
	for _, want := range []string{
		`<?xml version="1.0" encoding="UTF-8"?>`,
		`targetNamespace="urn:test:doc"`,
		`elementFormDefault="qualified"`,
		`attributeFormDefault="unqualified"`,
		`version="0.2"`,
		`xmlns:cdt1="urn:test:cdt"`,
		`<xsd:import namespace="urn:test:cdt" schemaLocation="cdt_1.0.xsd"/>`,
		`<xsd:simpleType name="CountryType_CodeType">`,
		`<xsd:restriction base="xsd:token">`,
		`<xsd:enumeration value="USA"/>`,
		`<xsd:complexType name="CodeType">`,
		`<xsd:simpleContent>`,
		`<xsd:extension base="xsd:string">`,
		`<xsd:attribute name="CodeListAgName" type="xsd:string" use="required"/>`,
		`<xsd:attribute name="LanguageIdentifier" type="xsd:string" use="optional"/>`,
		`<xsd:element minOccurs="0" maxOccurs="1" name="ClosureReason" type="cdt1:TextType"/>`,
		`<xsd:element minOccurs="0" maxOccurs="unbounded" name="IncludedAttachment" type="doc:AttachmentType"/>`,
		`<xsd:element ref="doc:AssignedAddress"/>`,
		`<xsd:element name="Permit" type="doc:PermitType"/>`,
		`<ccts:Version>0.4</ccts:Version>`,
		`<ccts:Definition>A permit for hoarding &lt;structures&gt;.</ccts:Definition>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestWriterDeterministic(t *testing.T) {
	a := sampleSchema().String()
	b := sampleSchema().String()
	if a != b {
		t.Error("writer output is not deterministic")
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleSchema()
	parsed, err := ParseString(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TargetNamespace != orig.TargetNamespace {
		t.Errorf("targetNamespace = %q", parsed.TargetNamespace)
	}
	if parsed.Version != orig.Version {
		t.Errorf("version = %q", parsed.Version)
	}
	if !reflect.DeepEqual(parsed.Imports, orig.Imports) {
		t.Errorf("imports = %+v", parsed.Imports)
	}
	if len(parsed.Namespaces) != len(orig.Namespaces) {
		t.Errorf("namespaces = %+v, want %+v", parsed.Namespaces, orig.Namespaces)
	}
	// Second round trip must be byte-identical (writer-canonical form).
	out1 := parsed.String()
	parsed2, err := ParseString(out1)
	if err != nil {
		t.Fatal(err)
	}
	if out2 := parsed2.String(); out1 != out2 {
		t.Error("second round trip changed output")
	}

	ct := parsed.ComplexType("PermitType")
	if ct == nil {
		t.Fatal("PermitType lost")
	}
	if len(ct.Sequence) != 3 {
		t.Fatalf("sequence = %d elements", len(ct.Sequence))
	}
	if ct.Sequence[0].Occurs.Min != 0 || ct.Sequence[0].Occurs.Max != 1 {
		t.Errorf("occurs = %v", ct.Sequence[0].Occurs)
	}
	if ct.Sequence[1].Occurs.Max != Unbounded {
		t.Errorf("unbounded lost: %v", ct.Sequence[1].Occurs)
	}
	if ct.Sequence[2].Ref != "doc:AssignedAddress" {
		t.Errorf("ref = %q", ct.Sequence[2].Ref)
	}
	if ct.Annotation == nil || len(ct.Annotation.Documentation) != 2 {
		t.Fatalf("annotation = %+v", ct.Annotation)
	}
	if ct.Annotation.Documentation[1].Value != "A permit for hoarding <structures>." {
		t.Errorf("definition = %q", ct.Annotation.Documentation[1].Value)
	}

	code := parsed.ComplexType("CodeType")
	if code == nil || code.SimpleContent == nil || code.SimpleContent.Extension == nil {
		t.Fatal("CodeType simpleContent lost")
	}
	ext := code.SimpleContent.Extension
	if ext.Base != "xsd:string" || len(ext.Attributes) != 2 {
		t.Errorf("extension = %+v", ext)
	}
	if ext.Attributes[0].Use != "required" {
		t.Errorf("attribute use = %q", ext.Attributes[0].Use)
	}

	st := parsed.SimpleType("CountryType_CodeType")
	if st == nil || st.Restriction == nil {
		t.Fatal("simple type lost")
	}
	if !reflect.DeepEqual(st.Restriction.Enumerations, []string{"USA", "AUT", "AUS"}) {
		t.Errorf("enumerations = %v", st.Restriction.Enumerations)
	}
	if parsed.GlobalElement("Permit") == nil || parsed.GlobalElement("Nope") != nil {
		t.Error("GlobalElement lookup broken")
	}
}

func TestOccursContains(t *testing.T) {
	cases := []struct {
		o     Occurs
		count int
		want  bool
	}{
		{Occurs{}, 1, true},
		{Occurs{}, 0, false},
		{Occurs{Min: 0, Max: 1, Explicit: true}, 0, true},
		{Occurs{Min: 0, Max: 1, Explicit: true}, 2, false},
		{Occurs{Min: 0, Max: Unbounded}, 99, true},
		{Occurs{Min: 2, Max: 3}, 1, false},
		{Occurs{Min: 2, Max: 3}, 3, true},
	}
	for _, c := range cases {
		if got := c.o.Contains(c.count); got != c.want {
			t.Errorf("%v.Contains(%d) = %v, want %v", c.o, c.count, got, c.want)
		}
	}
	if got := (Occurs{Min: 1, Max: Unbounded}).String(); got != "1..unbounded" {
		t.Errorf("String = %q", got)
	}
	if got := (Occurs{}).String(); got != "1..1" {
		t.Errorf("String = %q", got)
	}
}

func TestQNames(t *testing.T) {
	s := NewSchema("urn:tns")
	_ = s.DeclareNamespace("a", "urn:a")
	if err := s.DeclareNamespace("a", "urn:a"); err != nil {
		t.Errorf("idempotent declare failed: %v", err)
	}
	if err := s.DeclareNamespace("a", "urn:other"); err == nil {
		t.Error("conflicting declare should fail")
	}
	uri, local, err := s.ResolveQName("a:Foo")
	if err != nil || uri != "urn:a" || local != "Foo" {
		t.Errorf("ResolveQName = %q %q %v", uri, local, err)
	}
	uri, local, err = s.ResolveQName("Bare")
	if err != nil || uri != "urn:tns" || local != "Bare" {
		t.Errorf("unprefixed = %q %q %v", uri, local, err)
	}
	uri, _, err = s.ResolveQName("xsd:string")
	if err != nil || uri != XSDNamespace {
		t.Errorf("xsd builtin = %q %v", uri, err)
	}
	if _, _, err := s.ResolveQName("zz:X"); err == nil {
		t.Error("undeclared prefix should fail")
	}
	if p, ok := s.PrefixFor("urn:a"); !ok || p != "a" {
		t.Errorf("PrefixFor = %q %v", p, ok)
	}
	if _, ok := s.PrefixFor("urn:none"); ok {
		t.Error("PrefixFor unknown should be false")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`<notxml`,
		`<foo/>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:choice/></xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:complexType/></xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:simpleType/></xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:element/></xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:element name="x" minOccurs="bad"/></xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:complexType name="T"><xsd:all/></xsd:complexType></xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:simpleType name="T"><xsd:restriction base="xsd:token"><xsd:totalDigits value="3"/></xsd:restriction></xsd:simpleType></xsd:schema>`,
	}
	for _, doc := range bad {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString(%q) should fail", doc)
		}
	}
}

func TestParseFacets(t *testing.T) {
	doc := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:simpleType name="Short">
	    <xsd:restriction base="xsd:string">
	      <xsd:pattern value="[A-Z]+"/>
	      <xsd:minLength value="2"/>
	      <xsd:maxLength value="5"/>
	    </xsd:restriction>
	  </xsd:simpleType>
	</xsd:schema>`
	s, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	r := s.SimpleType("Short").Restriction
	if r.Pattern != "[A-Z]+" || r.MinLength == nil || *r.MinLength != 2 || r.MaxLength == nil || *r.MaxLength != 5 {
		t.Errorf("facets = %+v", r)
	}
	// Facets serialise and re-parse.
	s2, err := ParseString(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.SimpleType("Short").Restriction, r) {
		t.Error("facet round trip failed")
	}
}

func TestEscape(t *testing.T) {
	in := "a&b<c>d\"e'f\tg"
	for _, c := range []struct {
		write func(*bytes.Buffer, string)
		want  string
	}{
		{xmlesc.Attr, "a&amp;b&lt;c&gt;d&quot;e&apos;f&#x9;g"},
		{xmlesc.Text, "a&amp;b&lt;c&gt;d&quot;e&apos;f\tg"},
	} {
		var b bytes.Buffer
		escape(&b, in, c.write)
		if got := b.String(); got != c.want {
			t.Errorf("escape = %q, want %q", got, c.want)
		}
	}
}

// TestWriteParseFacetValues writes pattern and enumeration facets holding
// characters Go quoting would mangle and parses them back unchanged.
func TestWriteParseFacetValues(t *testing.T) {
	values := []string{`\d{4}`, `C:\dir`, "tab\there", "nbsp\u00a0x", `quote"apos'amp&`, "line\nbreak"}
	s := NewSchema("urn:t")
	s.SimpleTypes = append(s.SimpleTypes,
		&SimpleType{Name: "Year", Restriction: &Restriction{Base: "xsd:string", Pattern: `\d{4}`}},
		&SimpleType{Name: "Codes", Restriction: &Restriction{Base: "xsd:token", Enumerations: values}},
	)
	var b bytes.Buffer
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.SimpleType("Year").Restriction.Pattern; got != `\d{4}` {
		t.Errorf("pattern read back as %q", got)
	}
	if got := s2.SimpleType("Codes").Restriction.Enumerations; !reflect.DeepEqual(got, values) {
		t.Errorf("enumerations read back as %q, want %q", got, values)
	}
}

func TestSplitQName(t *testing.T) {
	p, l := SplitQName("cdt1:TextType")
	if p != "cdt1" || l != "TextType" {
		t.Errorf("split = %q %q", p, l)
	}
	p, l = SplitQName("Local")
	if p != "" || l != "Local" {
		t.Errorf("split = %q %q", p, l)
	}
}

func TestWriteToWriter(t *testing.T) {
	var buf strings.Builder
	if err := sampleSchema().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != sampleSchema().String() {
		t.Error("Write and String disagree")
	}
}

func TestAnnotatedElementsAndAttributes(t *testing.T) {
	s := NewSchema("urn:a")
	_ = s.DeclareNamespace("a", "urn:a")
	_ = s.DeclareNamespace("ccts", CCTSDocumentationNamespace)
	ann := &Annotation{Documentation: []DocEntry{{Tag: "Definition", Value: "documented"}}}
	s.ComplexTypes = append(s.ComplexTypes, &ComplexType{
		Name: "TType",
		SimpleContent: &SimpleContent{Extension: &Extension{
			Base: "xsd:string",
			Attributes: []*Attribute{
				{Name: "Doc", Type: "xsd:string", Use: "optional", Annotation: ann},
			},
		}},
	})
	s.ComplexTypes = append(s.ComplexTypes, &ComplexType{
		Name: "SeqType",
		Sequence: []*Element{
			{Name: "Documented", Type: "a:TType", Annotation: ann},
		},
	})
	s.Elements = append(s.Elements, &Element{Name: "Root", Type: "a:SeqType", Annotation: ann})
	out := s.String()
	if got := strings.Count(out, "<ccts:Definition>documented</ccts:Definition>"); got != 3 {
		t.Errorf("annotation count = %d, want 3\n%s", got, out)
	}
	// Annotated constructs round trip.
	parsed, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	seq := parsed.ComplexType("SeqType")
	if seq.Sequence[0].Annotation == nil {
		t.Error("element annotation lost")
	}
	attr := parsed.ComplexType("TType").SimpleContent.Extension.Attributes[0]
	if attr.Annotation == nil {
		t.Error("attribute annotation lost")
	}
	if parsed.GlobalElement("Root").Annotation == nil {
		t.Error("global element annotation lost")
	}
}

func TestParserRejectsAnonymousNestedTypes(t *testing.T) {
	doc := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:element name="X"><xsd:complexType><xsd:sequence/></xsd:complexType></xsd:element>
	</xsd:schema>`
	if _, err := ParseString(doc); err == nil {
		t.Error("anonymous nested type should be rejected")
	}
	doc2 := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:simpleType name="S"><xsd:list/></xsd:simpleType>
	</xsd:schema>`
	if _, err := ParseString(doc2); err == nil {
		t.Error("list simple type should be rejected")
	}
	doc3 := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:complexType name="C"><xsd:simpleContent><xsd:restriction base="xsd:string"/></xsd:simpleContent></xsd:complexType>
	</xsd:schema>`
	if _, err := ParseString(doc3); err == nil {
		t.Error("simpleContent restriction (unsupported) should be rejected")
	}
	doc4 := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:complexType name="C"><xsd:simpleContent><xsd:extension base="xsd:string"><xsd:group/></xsd:extension></xsd:simpleContent></xsd:complexType>
	</xsd:schema>`
	if _, err := ParseString(doc4); err == nil {
		t.Error("group inside extension should be rejected")
	}
	doc5 := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:complexType name="C"><xsd:sequence><xsd:any/></xsd:sequence></xsd:complexType>
	</xsd:schema>`
	if _, err := ParseString(doc5); err == nil {
		t.Error("wildcard inside sequence should be rejected")
	}
}

func TestParseToleratesForeignElements(t *testing.T) {
	doc := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <!-- a comment -->
	  <xsd:annotation><xsd:documentation>schema-level docs</xsd:documentation></xsd:annotation>
	  <foreign:thing xmlns:foreign="urn:f"><nested/></foreign:thing>
	  <xsd:element name="Root" type="RootType"/>
	  <xsd:complexType name="RootType"><xsd:sequence/></xsd:complexType>
	</xsd:schema>`
	s, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if s.GlobalElement("Root") == nil {
		t.Error("Root element lost amid foreign content")
	}
}
