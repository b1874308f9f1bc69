// Package rdfs transforms core components models into RDF Schema
// vocabularies (RDF/XML syntax), the second transfer syntax the paper
// names as a future extension ("future extensions could include the
// generation of RELAX NG [8] or RDF schemas [15] as well", citing the
// W3C RDF Vocabulary Description Language 1.0).
//
// Mapping:
//
//	ACC            -> rdfs:Class
//	ABIE           -> rdfs:Class, rdfs:subClassOf its ACC (restriction)
//	BCC/BBIE       -> rdf:Property with rdfs:domain and a datatype range
//	ASCC/ASBIE     -> rdf:Property with a class range
//	CDT/QDT        -> rdfs:Datatype (QDT subclassing its CDT)
//	ENUM           -> rdfs:Class plus one typed individual per literal
//
// Resources are identified as <baseURN>#<Name>; property names follow
// the role/property term in lowerCamelCase.
package rdfs

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf8"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/xmlesc"
)

// Namespaces used by the generated vocabulary.
const (
	RDFNamespace  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNamespace = "http://www.w3.org/2000/01/rdf-schema#"
	LiteralRange  = RDFSNamespace + "Literal"
)

// termBytes sizes the document buffer before writing: the bytes of one
// vocabulary term, URIs and label included. The fixture and synthetic
// models use 250-330 bytes a term; the estimate sits near the top
// because a buffer that runs short doubles. The backend hands the
// buffer on uncopied, slack included.
const termBytes = 320

// render renders the whole model as one RDF Schema document, into one
// buffer sized up front. ns gives each library's effective namespace,
// the base of its resource URIs.
func render(m *core.Model, ns func(*core.Library) string) ([]byte, error) {
	terms := 0
	for _, lib := range m.Libraries() {
		for _, acc := range lib.ACCs {
			terms += 1 + len(acc.BCCs) + len(acc.ASCCs)
		}
		for _, abie := range lib.ABIEs {
			terms += 1 + len(abie.BBIEs) + len(abie.ASBIEs)
		}
		for _, e := range lib.ENUMs {
			terms += 1 + len(e.Literals)
		}
		terms += len(lib.CDTs) + len(lib.QDTs)
	}
	g := &generator{ns: ns}
	g.b.Grow(terms * termBytes)
	g.b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	g.b.WriteString(`<rdf:RDF xmlns:rdf="` + RDFNamespace + `" xmlns:rdfs="` + RDFSNamespace + "\">\n")
	for _, lib := range m.Libraries() {
		if lib.BaseURN == "" {
			return nil, fmt.Errorf("rdfs: library %q has no baseURN; cannot mint resource URIs", lib.Name)
		}
		switch lib.Kind {
		case core.KindCCLibrary:
			for _, acc := range lib.ACCs {
				g.acc(acc)
			}
		case core.KindBIELibrary, core.KindDOCLibrary:
			for _, abie := range lib.ABIEs {
				g.abie(abie)
			}
		case core.KindCDTLibrary:
			for _, cdt := range lib.CDTs {
				g.datatype(g.uri(lib, cdt.Name), cdt.Name, cdt.Definition, "")
			}
		case core.KindQDTLibrary:
			for _, qdt := range lib.QDTs {
				base := ""
				if qdt.BasedOn != nil {
					base = g.uri(qdt.BasedOn.DataTypeLibrary(), qdt.BasedOn.Name)
				}
				g.datatype(g.uri(lib, qdt.Name), qdt.Name, qdt.Definition, base)
			}
		case core.KindENUMLibrary:
			for _, e := range lib.ENUMs {
				g.enum(lib, e)
			}
		case core.KindPRIMLibrary:
			// Primitives map to rdfs:Literal ranges; no vocabulary terms.
		}
	}
	g.b.WriteString("</rdf:RDF>\n")
	return g.b.Bytes(), nil
}

type generator struct {
	b  bytes.Buffer
	ns func(*core.Library) string
}

// uri mints the resource URI of an element.
func (g *generator) uri(lib *core.Library, name string) string {
	return g.ns(lib) + "#" + name
}

// propertyName lowers the first rune of a property/role term:
// "ClosureReason" -> "closureReason".
func propertyName(name string) string {
	r, size := utf8.DecodeRuneInString(name)
	if lower := unicode.ToLower(r); lower != r {
		return string(lower) + name[size:]
	}
	return name
}

// attr writes markup around an escaped attribute value.
func (g *generator) attr(before, value, after string) {
	g.b.WriteString(before)
	xmlesc.Attr(&g.b, value)
	g.b.WriteString(after)
}

// text writes markup around escaped character data.
func (g *generator) text(before, value, after string) {
	g.b.WriteString(before)
	xmlesc.Text(&g.b, value)
	g.b.WriteString(after)
}

func (g *generator) class(uri, label, comment, subClassOf string) {
	g.attr(`  <rdfs:Class rdf:about="`, uri, "\">\n")
	g.text("    <rdfs:label>", label, "</rdfs:label>\n")
	if comment != "" {
		g.text("    <rdfs:comment>", comment, "</rdfs:comment>\n")
	}
	if subClassOf != "" {
		g.attr(`    <rdfs:subClassOf rdf:resource="`, subClassOf, "\"/>\n")
	}
	g.b.WriteString("  </rdfs:Class>\n")
}

func (g *generator) property(uri, label, domain, rng string) {
	g.attr(`  <rdf:Property rdf:about="`, uri, "\">\n")
	g.text("    <rdfs:label>", label, "</rdfs:label>\n")
	g.attr(`    <rdfs:domain rdf:resource="`, domain, "\"/>\n")
	g.attr(`    <rdfs:range rdf:resource="`, rng, "\"/>\n")
	g.b.WriteString("  </rdf:Property>\n")
}

func (g *generator) datatype(uri, label, comment, base string) {
	g.attr(`  <rdfs:Datatype rdf:about="`, uri, "\">\n")
	g.text("    <rdfs:label>", label, "</rdfs:label>\n")
	if comment != "" {
		g.text("    <rdfs:comment>", comment, "</rdfs:comment>\n")
	}
	if base != "" {
		g.attr(`    <rdfs:subClassOf rdf:resource="`, base, "\"/>\n")
	}
	g.b.WriteString("  </rdfs:Datatype>\n")
}

func (g *generator) acc(acc *core.ACC) {
	lib := acc.Library()
	classURI := g.uri(lib, acc.Name)
	g.class(classURI, acc.DEN(), acc.Definition, "")
	for _, bcc := range acc.BCCs {
		g.property(
			g.uri(lib, acc.Name+"."+propertyName(bcc.Name)),
			bcc.DEN(),
			classURI,
			g.uri(bcc.Type.DataTypeLibrary(), bcc.Type.Name),
		)
	}
	for _, ascc := range acc.ASCCs {
		g.property(
			g.uri(lib, acc.Name+"."+propertyName(ascc.Role)),
			ascc.DEN(),
			classURI,
			g.uri(ascc.Target.Library(), ascc.Target.Name),
		)
	}
}

func (g *generator) abie(abie *core.ABIE) {
	lib := abie.Library()
	classURI := g.uri(lib, abie.Name)
	super := ""
	if abie.BasedOn != nil {
		super = g.uri(abie.BasedOn.Library(), abie.BasedOn.Name)
	}
	g.class(classURI, abie.DEN(), abie.Definition, super)
	for _, bbie := range abie.BBIEs {
		g.property(
			g.uri(lib, abie.Name+"."+propertyName(bbie.Name)),
			bbie.DEN(),
			classURI,
			g.uri(bbie.Type.DataTypeLibrary(), bbie.Type.TypeName()),
		)
	}
	for _, asbie := range abie.ASBIEs {
		g.property(
			g.uri(lib, abie.Name+"."+propertyName(asbie.Role)),
			asbie.DEN(),
			classURI,
			g.uri(asbie.Target.Library(), asbie.Target.Name),
		)
	}
}

func (g *generator) enum(lib *core.Library, e *core.ENUM) {
	classURI := g.uri(lib, e.Name)
	g.class(classURI, e.Name, e.Definition, "")
	for _, l := range e.Literals {
		g.attr(`  <rdf:Description rdf:about="`, classURI+"."+l.Name, "\">\n")
		g.attr(`    <rdf:type rdf:resource="`, classURI, "\"/>\n")
		g.text("    <rdfs:label>", l.Value, "</rdfs:label>\n")
		g.b.WriteString("  </rdf:Description>\n")
	}
}
