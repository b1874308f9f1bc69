package xsd

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan/xmloracle"
)

// tightLimits are small enough that short schemas cross every limit,
// MaxInputBytes included; the seeds sit on both sides of each.
var tightLimits = limits.Limits{MaxInputBytes: 2048, MaxDepth: 6, MaxElements: 40, MaxAttributes: 6, MaxTokenLen: 48}

// CompareParsers exports compareParsers to the tests over generated
// schema sets, which live outside the package.
var CompareParsers = compareParsers

// compareParsers parses doc with Parse's scanner and with the
// encoding/xml oracle, under the default and the tight limits, and fails
// unless both return deeply equal schemas or both reject it alike.
func compareParsers(t testing.TB, name string, doc []byte) {
	t.Helper()
	for _, lim := range []limits.Limits{limits.Default(), tightLimits} {
		got, gerr := parse(bytes.NewReader(doc), lim)
		want, werr := oracleParse(bytes.NewReader(doc), lim)
		if g, w := xmloracle.Outcome(gerr), xmloracle.Outcome(werr); g != w {
			if !xmloracle.EarlyCut(gerr, werr) {
				t.Errorf("%s (limits %+v): scanner %s (%v), oracle %s (%v)", name, lim, g, gerr, w, werr)
			}
			continue
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s (limits %+v): schemas differ:\nscanner %s\noracle  %s", name, lim, got, want)
		}
	}
}

// schemaDoc wraps body in a schema element at depth 1 with four
// attributes.
func schemaDoc(body string) string {
	return `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:ccts="urn:ccts" xmlns:t="urn:t" targetNamespace="urn:t">` +
		body + `</xsd:schema>`
}

// documented wraps entries in the annotation of a complex type, at
// depth 4.
func documented(entries string) string {
	return schemaDoc(`<xsd:complexType name="T"><xsd:annotation><xsd:documentation>` + entries +
		`</xsd:documentation></xsd:annotation><xsd:sequence/></xsd:complexType>`)
}

// parserSeeds are small schemas covering what the parser reads, the XML
// the scanner accepts around it, and the ways input can leave both.
// FuzzParse starts from them and TestParsersAgree runs every one.
func parserSeeds() []string {
	el := `<xsd:element name="E" type="t:T"%s/>`
	return []string{
		sampleSchema().String(),
		"",
		`<broken`,
		`<foo/>`,
		`<xsd:schema/>`,
		`<schema xmlns="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:d"><element name="R" type="RT"/><complexType name="RT"><sequence/></complexType></schema>`,
		`<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema" xmlns="urn:d" xmlns:xsd="urn:not-xsd" version="1" elementFormDefault="qualified" attributeFormDefault="unqualified"/>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:p="xmlns" p:q="urn:q" xmlns:xmlns="urn:x" targetNamespace="a" targetNamespace="b"/>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns="" x:targetNamespace="urn:x"/>`,
		// Declarations, processing instructions, comments and directives.
		`<?xml version="1.0" encoding="UTF-8"?>` + schemaDoc(""),
		`<?xml version="1.0" encoding="ISO-8859-1"?>` + schemaDoc(""),
		`<?xml version="1.1"?>` + schemaDoc(""),
		`<!-- c --><?pi x?>` + schemaDoc(`<!-- c --><?pi?><!ELEMENT foo ANY>`),
		`<!DOCTYPE schema [<!ENTITY e "x">]>` + schemaDoc(`&e;`),
		`<!ENTITY e "x">` + schemaDoc(""),
		schemaDoc(`<!DOCTYPE x>`),
		"\xef\xbb\xbf" + schemaDoc(""),
		// Top-level children.
		schemaDoc(`<xsd:import namespace="urn:i" schemaLocation="i.xsd"/><xsd:import namespace="urn:j"><xsd:annotation/></xsd:import>`),
		schemaDoc(`<xsd:include schemaLocation="x.xsd"/>`),
		schemaDoc(`<xsd:annotation><xsd:documentation>schema <b>docs</b></xsd:documentation></xsd:annotation>`),
		schemaDoc(`<foreign:thing xmlns:foreign="urn:f"><nested/></foreign:thing>`),
		schemaDoc(`text &lt; <![CDATA[cdata]]>`),
		// Elements and occurrences.
		schemaDoc(fmt.Sprintf(el, ` minOccurs="0" maxOccurs="unbounded"`)),
		schemaDoc(fmt.Sprintf(el, ` minOccurs="2" maxOccurs="5" minOccurs="1"`)),
		schemaDoc(fmt.Sprintf(el, ` minOccurs="-1"`)),
		schemaDoc(fmt.Sprintf(el, ` maxOccurs="x" minOccurs="bad"`)),
		schemaDoc(fmt.Sprintf(el, ` minOccurs="1" maxOccurs="many"`)),
		schemaDoc(fmt.Sprintf(el, ` t:minOccurs="3" name="F" x:type="t:U"`)),
		schemaDoc(`<xsd:element ref="t:E"/><xsd:element/>`),
		schemaDoc(`<xsd:element name="E"><xsd:complexType/></xsd:element>`),
		schemaDoc(`<xsd:element name="E"><xsd:annotation/><xsd:annotation><xsd:documentation><ccts:A>a</ccts:A></xsd:documentation></xsd:annotation></xsd:element>`),
		// Complex types.
		schemaDoc(`<xsd:complexType name="T"><xsd:sequence><xsd:element name="A" type="t:A"/><xsd:element ref="t:B" maxOccurs="unbounded"/></xsd:sequence></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="T"><xsd:sequence><xsd:any/></xsd:sequence></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="T"><xsd:all/></xsd:complexType>`),
		schemaDoc(`<xsd:complexType><xsd:sequence/></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="T"><f:x xmlns:f="urn:f"/><xsd:sequence/></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="C"><xsd:simpleContent><xsd:extension base="xsd:string"><xsd:attribute name="a" type="xsd:string" use="required"><xsd:annotation><xsd:documentation><ccts:Name>a</ccts:Name></xsd:documentation></xsd:annotation><f:x xmlns:f="urn:f"/></xsd:attribute><xsd:attribute name="b" use="optional"/></xsd:extension></xsd:simpleContent></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="C"><xsd:simpleContent><xsd:restriction base="xsd:string"/></xsd:simpleContent></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="C"><xsd:simpleContent/></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="C"><xsd:simpleContent><xsd:extension base="xsd:string"><xsd:group/></xsd:extension></xsd:simpleContent></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="C"><xsd:simpleContent><xsd:extension base="xsd:string"><xsd:attribute/></xsd:extension></xsd:simpleContent></xsd:complexType>`),
		// Simple types and facets.
		schemaDoc(`<xsd:simpleType name="S"><xsd:restriction base="xsd:token"><xsd:enumeration value="a"/><f:enumeration xmlns:f="urn:f" value="b" value="c"/><xsd:pattern value="[A-Z]+"/><xsd:minLength value="1"/><xsd:maxLength value="9"><x/></xsd:maxLength></xsd:restriction></xsd:simpleType>`),
		schemaDoc(`<xsd:simpleType name="S"><xsd:restriction base="xsd:token"><xsd:minLength value="one"/></xsd:restriction></xsd:simpleType>`),
		schemaDoc(`<xsd:simpleType name="S"><xsd:restriction base="xsd:token"><xsd:maxLength/></xsd:restriction></xsd:simpleType>`),
		schemaDoc(`<xsd:simpleType name="S"><xsd:restriction base="xsd:token"><xsd:totalDigits value="3"/></xsd:restriction></xsd:simpleType>`),
		schemaDoc(`<xsd:simpleType name="S"><xsd:list/></xsd:simpleType>`),
		schemaDoc(`<xsd:simpleType><xsd:restriction base="xsd:token"/></xsd:simpleType>`),
		schemaDoc(`<xsd:simpleType name="S"><xsd:annotation/><f:x xmlns:f="urn:f"/></xsd:simpleType>`),
		// Annotation text: references, CDATA, comments, line ends,
		// nesting, and whitespace trimming.
		documented(`<ccts:Definition>A &lt;b&gt; &amp; &#65;&#x42; &apos;&quot;</ccts:Definition>`),
		documented(`<ccts:D> a <![CDATA[ <x> & ]]> b <!-- c --> d <?pi?> e </ccts:D>`),
		documented("<ccts:D>\r\n line\r one \r\n</ccts:D><ccts:E>x\r<!---->\ny</ccts:E>"),
		documented(`<ccts:Outer>o1<ccts:Inner>in</ccts:Inner>o2</ccts:Outer>`),
		documented(`<ccts:D>a<xsd:b>b</xsd:b>c</ccts:D><ccts:D>d<ccts:X/>e</ccts:D>`),
		documented(`<ccts:D>a<x:D xmlns:x="urn:x">b</x:D>c</ccts:D>`),
		documented("<ccts:D>  nbsp \u0085</ccts:D><ccts:E/><ccts:F>  </ccts:F>"),
		documented(`text outside <ccts:D>in</ccts:D> after`),
		documented(`<ccts:D>&bogus;</ccts:D>`),
		documented(`<ccts:D>]]></ccts:D>`),
		documented("<ccts:D>\x01</ccts:D>"),
		documented(`<ccts:D><![CDATA[unterminated`),
		// Names and element structure.
		schemaDoc(`<xsd:element name="Näme" type="t:Typ"/><xsd:élément/>`),
		schemaDoc(`<xsd:complexType name="T"></xsd:complexTyp>`),
		schemaDoc(`<xsd:element name="E" type="t:T"/></xsd:element>`),
		schemaDoc(`<xsd:element name="E" type="t:T" b="<"/>`),
		schemaDoc(`<xsd:element name="E" type="t:T" b/>`),
		schemaDoc(`<a:b:c/>`),
		schemaDoc(`<xsd:element name="E" type="t:T"/>`) + `<trailing>`,
		// Limit edges: nesting, element and attribute counts, token
		// lengths, each reached and crossed under the tight limits.
		strings.Repeat(`<xsd:sequence>`, 200) + strings.Repeat(`</xsd:sequence>`, 200),
		schemaDoc(`<xsd:complexType name="T"><xsd:annotation><xsd:documentation><ccts:A><x/></ccts:A></xsd:documentation></xsd:annotation></xsd:complexType>`),
		schemaDoc(`<xsd:complexType name="T"><xsd:annotation><xsd:documentation><ccts:A><x><y/></x></ccts:A></xsd:documentation></xsd:annotation></xsd:complexType>`),
		schemaDoc(strings.Repeat(fmt.Sprintf(el, ""), 39)),
		schemaDoc(strings.Repeat(fmt.Sprintf(el, ""), 40)),
		schemaDoc(fmt.Sprintf(el, ` a="1" b="2" c="3" d="4"`)),
		schemaDoc(fmt.Sprintf(el, ` a="1" b="2" c="3" d="4" e="5"`)),
		schemaDoc(fmt.Sprintf(el, ` a="`+strings.Repeat("v", 48)+`"`)),
		schemaDoc(fmt.Sprintf(el, ` a="`+strings.Repeat("v", 49)+`"`)),
		schemaDoc(fmt.Sprintf(el, ` a="`+strings.Repeat("&amp;", 49)+`"`)),
		documented(`<ccts:D>` + strings.Repeat("t", 48) + `</ccts:D>`),
		documented(`<ccts:D>` + strings.Repeat("t", 49) + `</ccts:D>`),
		documented(`<ccts:D><![CDATA[` + strings.Repeat("c", 49) + `]]></ccts:D>`),
		documented(strings.Repeat("\r\n", 30) + `<!---->` + strings.Repeat("&lt;", 49)),
		schemaDoc(strings.Repeat("<!-- -->", 200)),
		schemaDoc(strings.Repeat("<!-- -->", 250)),
		schemaDoc(strings.Repeat("<!-- -->", 200)) + strings.Repeat("<!-- -->", 100),
	}
}

// TestParsersAgree runs Parse's scanner and the oracle over every XSD
// golden, every seed and every prefix of one full seed, under default
// and tight limits.
func TestParsersAgree(t *testing.T) {
	docs := map[string][]byte{}
	err := filepath.WalkDir("../../testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".xsd" {
			return err
		}
		data, err := os.ReadFile(path)
		docs[path] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 20 {
		t.Fatalf("found %d XSD goldens, want at least 20", len(docs))
	}
	for i, seed := range parserSeeds() {
		docs[fmt.Sprintf("seed %d", i)] = []byte(seed)
	}
	// An attribute value past the default MaxTokenLen; the seeds cover
	// the same edge under the tight limits at a fraction of the size.
	docs["long value"] = []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="` +
		strings.Repeat("u", 1<<20+1) + `"/>`)
	full := sampleSchema().String()
	for n := 0; n < len(full); n++ {
		docs[fmt.Sprintf("seed 0 prefix %d", n)] = []byte(full[:n])
	}
	for name, doc := range docs {
		compareParsers(t, name, doc)
	}
}

// TestAnnotationText pins how annotation text is read: references and
// line ends decoded, CDATA kept, comments and markup dropped, an inner
// entry's text its own.
func TestAnnotationText(t *testing.T) {
	s, err := ParseString(documented("<ccts:D> a &amp; <![CDATA[<b>]]>\r\nc<!-- x --> </ccts:D>" +
		`<ccts:Outer>o1<ccts:Inner>in</ccts:Inner>o2</ccts:Outer>`))
	if err != nil {
		t.Fatal(err)
	}
	got := s.ComplexTypes[0].Annotation.Documentation
	want := []DocEntry{{Tag: "D", Value: "a & <b>\nc"}, {Tag: "Inner", Value: "in"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("documentation = %q, want %q", got, want)
	}
}
