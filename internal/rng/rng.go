// Package rng transforms core components models into RELAX NG grammars
// (XML syntax). The paper names this as the natural extension of its
// XSD generator: "the generation is not necessarily limited to XML
// schema and future extensions could include the generation of RELAX NG
// [8] or RDF schemas as well."
//
// One generation run produces a single self-contained grammar: every
// reachable library contributes its definitions under a prefixed define
// name (e.g. "cdt1.CodeType"), elements carry their library's namespace
// via the ns attribute, and the selected root ABIE becomes the start
// pattern.
package rng

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/ndr"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmlesc"
)

// Namespace is the RELAX NG structure namespace.
const Namespace = "http://relaxng.org/ns/structure/1.0"

// DatatypeLibrary is the XSD datatype library RELAX NG data patterns
// reference.
const DatatypeLibrary = "http://www.w3.org/2001/XMLSchema-datatypes"

// Pattern is a RELAX NG pattern node.
type Pattern interface {
	write(b *bytes.Buffer, depth int)
}

type (
	// elementPat matches one element with a namespace.
	elementPat struct {
		name     string
		ns       string
		children []Pattern
	}
	// attributePat matches one attribute.
	attributePat struct {
		name  string
		child Pattern
	}
	// refPat references a named define.
	refPat struct {
		name string
	}
	// dataPat matches a value of an XSD datatype.
	dataPat struct {
		typeName string
	}
	// valuePat matches one literal value.
	valuePat struct {
		value string
	}
	// choicePat matches one of its children.
	choicePat struct {
		children []Pattern
	}
	// wrapPat wraps children in optional/zeroOrMore/oneOrMore/group.
	wrapPat struct {
		kind     string
		children []Pattern
	}
	// textPat matches any text.
	textPat struct{}
	// emptyPat matches nothing.
	emptyPat struct{}
)

func indent(b *bytes.Buffer, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func writeAll(b *bytes.Buffer, ps []Pattern, depth int) {
	for _, p := range ps {
		p.write(b, depth)
	}
}

func (p *elementPat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString(`<element name="`)
	xmlesc.Attr(b, p.name)
	b.WriteString(`" ns="`)
	xmlesc.Attr(b, p.ns)
	b.WriteString("\">\n")
	writeAll(b, p.children, depth+1)
	indent(b, depth)
	b.WriteString("</element>\n")
}

func (p *attributePat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString(`<attribute name="`)
	xmlesc.Attr(b, p.name)
	b.WriteString("\">\n")
	p.child.write(b, depth+1)
	indent(b, depth)
	b.WriteString("</attribute>\n")
}

func (p *refPat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString(`<ref name="`)
	xmlesc.Attr(b, p.name)
	b.WriteString("\"/>\n")
}

func (p *dataPat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString(`<data type="`)
	xmlesc.Attr(b, p.typeName)
	b.WriteString("\"/>\n")
}

func (p *valuePat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString("<value>")
	xmlesc.Text(b, p.value)
	b.WriteString("</value>\n")
}

func (p *choicePat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString("<choice>\n")
	writeAll(b, p.children, depth+1)
	indent(b, depth)
	b.WriteString("</choice>\n")
}

func (p *wrapPat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteByte('<')
	b.WriteString(p.kind)
	b.WriteString(">\n")
	writeAll(b, p.children, depth+1)
	indent(b, depth)
	b.WriteString("</")
	b.WriteString(p.kind)
	b.WriteString(">\n")
}

func (p *textPat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString("<text/>\n")
}

func (p *emptyPat) write(b *bytes.Buffer, depth int) {
	indent(b, depth)
	b.WriteString("<empty/>\n")
}

// define is one named grammar production.
type define struct {
	name     string
	patterns []Pattern
}

// grammar is a generated RELAX NG grammar.
type grammar struct {
	start   string
	defines []define
	byName  map[string]bool
	// members counts the elements, attributes and values the defines
	// hold, to size the serialisation buffer.
	members int
}

// defineBytes and memberBytes size the serialisation buffer: the bytes
// of one define's frame and of one element, attribute or value pattern
// with its occurrence wrapper. The fixture and synthetic models come
// within a fifth of the estimate; a buffer that runs short doubles.
const (
	defineBytes = 96
	memberBytes = 160
)

// bytes serialises the grammar in RELAX NG XML syntax into a buffer
// sized up front; output is deterministic in generation order.
func (g *grammar) bytes() []byte {
	b := &bytes.Buffer{}
	b.Grow((len(g.defines)+1)*defineBytes + g.members*memberBytes)
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<grammar xmlns="` + Namespace + `" datatypeLibrary="` + DatatypeLibrary + "\">\n")
	if g.start != "" {
		b.WriteString("  <start>\n")
		(&refPat{name: g.start}).write(b, 2)
		b.WriteString("  </start>\n")
	}
	for _, d := range g.defines {
		indent(b, 1)
		b.WriteString(`<define name="`)
		xmlesc.Attr(b, d.name)
		b.WriteString("\">\n")
		writeAll(b, d.patterns, 2)
		indent(b, 1)
		b.WriteString("</define>\n")
	}
	b.WriteString("</grammar>\n")
	return b.Bytes()
}

func (g *grammar) addDefine(name string, patterns ...Pattern) {
	if g.byName[name] {
		return
	}
	g.byName[name] = true
	g.defines = append(g.defines, define{name: name, patterns: patterns})
}

// generate builds the grammar of a plan. A document plan's root ABIE
// becomes the start pattern; a library plan covers every ABIE of a BIE
// library, or every data type of a CDT, QDT or ENUM library. Elements
// carry their library's effective namespace, profile rewrites applied.
func generate(p *gen.Plan) (*grammar, error) {
	g := &generator{
		grammar:  &grammar{byName: map[string]bool{}},
		ix:       p.Index(),
		ns:       p.Namespace,
		prefixes: ndr.NewPrefixAllocator(),
		emitted:  map[any]string{},
	}
	if root := p.Root(); root != nil {
		rootDef, err := g.abie(root)
		if err != nil {
			return nil, err
		}
		rootName := g.ix.ABIEElementName(root)
		startName := "start." + rootName
		g.grammar.members++
		g.grammar.addDefine(startName, &elementPat{
			name:     rootName,
			ns:       g.ns(root.Library()),
			children: []Pattern{&refPat{name: rootDef}},
		})
		g.grammar.start = startName
		return g.grammar, nil
	}
	lib := p.Units()[0].Library()
	switch lib.Kind {
	case core.KindBIELibrary:
		for _, abie := range lib.ABIEs {
			if _, err := g.abie(abie); err != nil {
				return nil, err
			}
		}
	case core.KindCDTLibrary:
		for _, cdt := range lib.CDTs {
			g.cdt(cdt)
		}
	case core.KindQDTLibrary:
		for _, qdt := range lib.QDTs {
			if _, err := g.qdt(qdt); err != nil {
				return nil, err
			}
		}
	case core.KindENUMLibrary:
		for _, e := range lib.ENUMs {
			g.enum(e)
		}
	}
	return g.grammar, nil
}

type generator struct {
	grammar  *grammar
	ix       *core.ModelIndex
	ns       func(*core.Library) string
	prefixes *ndr.PrefixAllocator
	emitted  map[any]string
}

// defineName builds the prefixed production name for an element of a
// library.
func (g *generator) defineName(lib *core.Library, typeName string) string {
	return g.prefixes.Prefix(lib) + "." + typeName
}

// abie emits the production for an ABIE's content and returns its define
// name.
func (g *generator) abie(abie *core.ABIE) (string, error) {
	if name, ok := g.emitted[abie]; ok {
		return name, nil
	}
	lib := abie.Library()
	if lib == nil {
		return "", fmt.Errorf("rng: ABIE %q has no owning library", abie.Name)
	}
	name := g.defineName(lib, g.ix.ABIETypeName(abie))
	g.emitted[abie] = name // pre-register to terminate recursive models
	g.grammar.members += len(abie.BBIEs) + len(abie.ASBIEs)

	var body []Pattern
	for _, bbie := range abie.BBIEs {
		dtName, err := g.dataType(bbie.Type)
		if err != nil {
			return "", fmt.Errorf("rng: BBIE %q of ABIE %q: %w", bbie.Name, abie.Name, err)
		}
		el := &elementPat{
			name:     g.ix.BBIEElementName(bbie),
			ns:       g.ns(lib),
			children: []Pattern{&refPat{name: dtName}},
		}
		body = append(body, occurs(bbie.Card, el))
	}
	for _, asbie := range abie.ASBIEs {
		targetDef, err := g.abie(asbie.Target)
		if err != nil {
			return "", err
		}
		el := &elementPat{
			name:     g.ix.ASBIEElementName(asbie),
			ns:       g.ns(lib),
			children: []Pattern{&refPat{name: targetDef}},
		}
		body = append(body, occurs(asbie.Card, el))
	}
	if len(body) == 0 {
		body = []Pattern{&emptyPat{}}
	}
	g.grammar.addDefine(name, body...)
	return name, nil
}

// dataType emits the production for a CDT or QDT and returns its define
// name.
func (g *generator) dataType(dt core.DataType) (string, error) {
	switch t := dt.(type) {
	case *core.CDT:
		return g.cdt(t), nil
	case *core.QDT:
		return g.qdt(t)
	default:
		return "", fmt.Errorf("unsupported data type %T", dt)
	}
}

func (g *generator) cdt(cdt *core.CDT) string {
	if name, ok := g.emitted[cdt]; ok {
		return name
	}
	name := g.defineName(cdt.DataTypeLibrary(), g.ix.DataTypeName(cdt))
	g.emitted[cdt] = name
	body := []Pattern{&dataPat{typeName: xsdLocal(ndr.ContentBuiltin(cdt))}}
	body = append(body, g.supAttributes(cdt.Sups)...)
	g.grammar.addDefine(name, body...)
	return name
}

func (g *generator) qdt(qdt *core.QDT) (string, error) {
	if name, ok := g.emitted[qdt]; ok {
		return name, nil
	}
	name := g.defineName(qdt.DataTypeLibrary(), g.ix.DataTypeName(qdt))
	g.emitted[qdt] = name
	var content Pattern
	switch t := qdt.Content.Type.(type) {
	case *core.ENUM:
		content = &refPat{name: g.enum(t)}
	case *core.PRIM:
		if qdt.BasedOn != nil {
			content = &dataPat{typeName: xsdLocal(ndr.ContentBuiltin(qdt.BasedOn))}
		} else {
			content = &dataPat{typeName: xsdLocal(ndr.XSDBuiltin(t))}
		}
	default:
		return "", fmt.Errorf("rng: QDT %q has unsupported content type %T", qdt.Name, qdt.Content.Type)
	}
	body := []Pattern{content}
	body = append(body, g.supAttributes(qdt.Sups)...)
	g.grammar.addDefine(name, body...)
	return name, nil
}

func (g *generator) enum(e *core.ENUM) string {
	if name, ok := g.emitted[e]; ok {
		return name
	}
	name := g.defineName(e.Library(), g.ix.ENUMTypeName(e))
	g.emitted[e] = name
	g.grammar.members += len(e.Literals)
	choice := &choicePat{}
	for _, l := range e.Literals {
		choice.children = append(choice.children, &valuePat{value: l.Name})
	}
	var body Pattern = choice
	if len(choice.children) == 0 {
		body = &textPat{}
	}
	g.grammar.addDefine(name, body)
	return name
}

func (g *generator) supAttributes(sups []core.SupplementaryComponent) []Pattern {
	var out []Pattern
	g.grammar.members += len(sups)
	for i := range sups {
		sup := &sups[i]
		var value Pattern
		switch t := sup.Type.(type) {
		case *core.ENUM:
			value = &refPat{name: g.enum(t)}
		case *core.PRIM:
			value = &dataPat{typeName: xsdLocal(ndr.XSDBuiltin(t))}
		default:
			value = &textPat{}
		}
		attr := &attributePat{name: g.ix.SupAttributeName(sup), child: value}
		if sup.Card.Lower >= 1 {
			out = append(out, attr)
		} else {
			out = append(out, &wrapPat{kind: "optional", children: []Pattern{attr}})
		}
	}
	return out
}

// occurs wraps a pattern in the RELAX NG occurrence operator matching a
// CCTS cardinality.
func occurs(card core.Cardinality, p Pattern) Pattern {
	switch {
	case card.Lower == 0 && card.Upper == uml.Unbounded:
		return &wrapPat{kind: "zeroOrMore", children: []Pattern{p}}
	case card.Lower >= 1 && card.Upper == uml.Unbounded:
		return &wrapPat{kind: "oneOrMore", children: []Pattern{p}}
	case card.Lower == 0:
		return &wrapPat{kind: "optional", children: []Pattern{p}}
	default:
		return p
	}
}

// xsdLocal strips the xsd: prefix for the RELAX NG data/@type attribute,
// which resolves names against the declared datatypeLibrary.
func xsdLocal(qname string) string {
	return strings.TrimPrefix(qname, "xsd:")
}
