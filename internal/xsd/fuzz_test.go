package xsd

import (
	"strings"
	"testing"
)

// FuzzParse checks that arbitrary input never panics the parser, that
// the scanner-based parser agrees with the encoding/xml oracle under
// default and tight limits, and that successfully parsed schemas
// re-serialise and re-parse (writer/parser closure).
func FuzzParse(f *testing.F) {
	f.Add(sampleSchema().String())
	f.Add(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:element name="Root" type="RootType"/>
	  <xsd:complexType name="RootType"><xsd:sequence/></xsd:complexType>
	</xsd:schema>`)
	f.Add(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:simpleType name="S"><xsd:restriction base="xsd:token"><xsd:enumeration value="x"/></xsd:restriction></xsd:simpleType></xsd:schema>`)
	f.Add(`<foo>`)
	f.Add("")
	// Limit-edge seeds: nesting beyond the default depth limit and DTD /
	// entity declarations the hardened decoder rejects outright. An
	// attribute value past the default token-length limit is checked in
	// TestParsersAgree, and seeded here under the tight limits.
	f.Add(strings.Repeat(`<xsd:sequence>`, 200) + strings.Repeat(`</xsd:sequence>`, 200))
	f.Add(`<!DOCTYPE schema [<!ENTITY e "x">]><xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">&e;</xsd:schema>`)
	for _, seed := range parserSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		compareParsers(t, "fuzz input", []byte(doc))
		s, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		out := s.String()
		s2, err := ParseString(out)
		if err != nil {
			t.Fatalf("canonical output does not re-parse: %v\n%s", err, out)
		}
		if s2.String() != out {
			t.Error("second round trip not stable")
		}
	})
}
