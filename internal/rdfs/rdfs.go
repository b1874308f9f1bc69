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
// buffer sized up front. ix supplies the memoised dictionary entry
// names; a nil index derives them. ns gives each library's effective
// namespace, the base of its resource URIs.
func render(m *core.Model, ix *core.ModelIndex, ns func(*core.Library) string) ([]byte, error) {
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
	g := &generator{ix: ix, ns: ns}
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
				g.setClass(resource{g.ns(lib), cdt.Name})
				g.term("rdfs:Datatype", cdt.Name, cdt.Definition, nil)
			}
		case core.KindQDTLibrary:
			for _, qdt := range lib.QDTs {
				var base *resource
				if qdt.BasedOn != nil {
					base = &resource{g.ns(qdt.BasedOn.DataTypeLibrary()), qdt.BasedOn.Name}
				}
				g.setClass(resource{g.ns(lib), qdt.Name})
				g.term("rdfs:Datatype", qdt.Name, qdt.Definition, base)
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
	ix *core.ModelIndex
	ns func(*core.Library) string
	// class holds the escaped URI of the term being written, which its
	// properties and literals repeat.
	class bytes.Buffer
}

// resource is the URI <ns>#<name> of a vocabulary term, kept in pieces
// and written without joining them.
type resource struct{ ns, name string }

// escapeURI writes the escaped URI of r to b. Its pieces meet at an
// ASCII '#', so escaping them one by one writes the bytes escaping the
// joined URI would; the same holds for the '.' before a member term.
func escapeURI(b *bytes.Buffer, r resource) {
	xmlesc.Attr(b, r.ns)
	b.WriteByte('#')
	xmlesc.Attr(b, r.name)
}

// uri writes markup around the escaped URI of r.
func (g *generator) uri(before string, r resource, after string) {
	g.b.WriteString(before)
	escapeURI(&g.b, r)
	g.b.WriteString(after)
}

// setClass escapes the URI of the term about to be written once.
func (g *generator) setClass(r resource) {
	g.class.Reset()
	escapeURI(&g.class, r)
}

// member writes markup around the class URI, a '.' and a member name,
// its first rune lowered for a property term.
func (g *generator) member(before, name string, lower bool, after string) {
	g.b.WriteString(before)
	g.b.Write(g.class.Bytes())
	g.b.WriteByte('.')
	if lower {
		name = writeLowerFirst(&g.b, name)
	}
	xmlesc.Attr(&g.b, name)
	g.b.WriteString(after)
}

// writeLowerFirst writes the lowered first rune of a property or role
// term ("ClosureReason" -> "closureReason") when lowering changes it,
// and returns the rest of the term still to write. The lowered rune is
// a letter, which escaping would write as is.
func writeLowerFirst(b *bytes.Buffer, term string) string {
	r, size := utf8.DecodeRuneInString(term)
	if lower := unicode.ToLower(r); lower != r {
		b.WriteRune(lower)
		return term[size:]
	}
	return term
}

// text writes markup around escaped character data.
func (g *generator) text(before, value, after string) {
	g.b.WriteString(before)
	xmlesc.Text(&g.b, value)
	g.b.WriteString(after)
}

// term writes the rdfs:Class or rdfs:Datatype element of the class set
// last: its label, the comment when there is one, and the super class
// or datatype when base is not nil.
func (g *generator) term(element, label, comment string, base *resource) {
	g.b.WriteString("  <")
	g.b.WriteString(element)
	g.b.WriteString(` rdf:about="`)
	g.b.Write(g.class.Bytes())
	g.b.WriteString("\">\n")
	g.text("    <rdfs:label>", label, "</rdfs:label>\n")
	if comment != "" {
		g.text("    <rdfs:comment>", comment, "</rdfs:comment>\n")
	}
	if base != nil {
		g.uri(`    <rdfs:subClassOf rdf:resource="`, *base, "\"/>\n")
	}
	g.b.WriteString("  </")
	g.b.WriteString(element)
	g.b.WriteString(">\n")
}

// property writes the rdf:Property of a term of the class set last; its
// URI is the class URI, a '.' and the term with its first rune lowered.
func (g *generator) property(term, label string, rng resource) {
	g.member(`  <rdf:Property rdf:about="`, term, true, "\">\n")
	g.text("    <rdfs:label>", label, "</rdfs:label>\n")
	g.b.WriteString(`    <rdfs:domain rdf:resource="`)
	g.b.Write(g.class.Bytes())
	g.b.WriteString("\"/>\n")
	g.uri(`    <rdfs:range rdf:resource="`, rng, "\"/>\n")
	g.b.WriteString("  </rdf:Property>\n")
}

func (g *generator) acc(acc *core.ACC) {
	g.setClass(resource{g.ns(acc.Library()), acc.Name})
	g.term("rdfs:Class", g.ix.DEN(acc), acc.Definition, nil)
	for _, bcc := range acc.BCCs {
		g.property(bcc.Name, g.ix.DEN(bcc), resource{g.ns(bcc.Type.DataTypeLibrary()), bcc.Type.Name})
	}
	for _, ascc := range acc.ASCCs {
		g.property(ascc.Role, g.ix.DEN(ascc), resource{g.ns(ascc.Target.Library()), ascc.Target.Name})
	}
}

func (g *generator) abie(abie *core.ABIE) {
	var super *resource
	if abie.BasedOn != nil {
		super = &resource{g.ns(abie.BasedOn.Library()), abie.BasedOn.Name}
	}
	g.setClass(resource{g.ns(abie.Library()), abie.Name})
	g.term("rdfs:Class", g.ix.DEN(abie), abie.Definition, super)
	for _, bbie := range abie.BBIEs {
		g.property(bbie.Name, g.ix.DEN(bbie), resource{g.ns(bbie.Type.DataTypeLibrary()), bbie.Type.TypeName()})
	}
	for _, asbie := range abie.ASBIEs {
		g.property(asbie.Role, g.ix.DEN(asbie), resource{g.ns(asbie.Target.Library()), asbie.Target.Name})
	}
}

// enum writes the enumeration class and one typed individual per
// literal, named by the class URI, a '.' and the literal name.
func (g *generator) enum(lib *core.Library, e *core.ENUM) {
	g.setClass(resource{g.ns(lib), e.Name})
	g.term("rdfs:Class", e.Name, e.Definition, nil)
	for _, l := range e.Literals {
		g.member(`  <rdf:Description rdf:about="`, l.Name, false, "\">\n")
		g.b.WriteString(`    <rdf:type rdf:resource="`)
		g.b.Write(g.class.Bytes())
		g.b.WriteString("\"/>\n")
		g.text("    <rdfs:label>", l.Value, "</rdfs:label>\n")
		g.b.WriteString("  </rdf:Description>\n")
	}
}
