// Package instgen generates sample XML instance documents from the
// schema sets produced by internal/gen. Partners implementing a business
// document exchange need example messages long before real data flows;
// the generator produces minimal (only required content) or full (every
// optional element once) instances that validate against the schema set
// by construction — a property the test suite checks for arbitrary
// models.
package instgen

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/xmlesc"
	"github.com/go-ccts/ccts/internal/xsd"
	"github.com/go-ccts/ccts/internal/xsdval"
)

// Mode selects how much optional content the generated instance carries.
type Mode int

const (
	// Minimal emits only required elements and attributes.
	Minimal Mode = iota
	// Full emits every optional element and attribute exactly once and
	// two occurrences of unbounded elements.
	Full
)

// Options configure generation.
type Options struct {
	Mode Mode
	// MaxDepth bounds recursion for cyclic schemas; elements beyond the
	// bound are emitted only if required, and their required children
	// are cut off with minimal content. Default 16.
	MaxDepth int
}

// Generate produces a sample document for the named global root element
// in the given namespace.
func Generate(set *xsdval.SchemaSet, rootNamespace, rootName string, opts Options) (string, error) {
	schema := set.Schema(rootNamespace)
	if schema == nil {
		return "", fmt.Errorf("instgen: no schema for namespace %q", rootNamespace)
	}
	decl := schema.GlobalElement(rootName)
	if decl == nil {
		return "", fmt.Errorf("instgen: namespace %q declares no global element %q", rootNamespace, rootName)
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 16
	}
	g := &generator{set: set, opts: opts, prefixes: map[string]string{}}
	body, err := g.element(schema, decl, rootName, rootNamespace, 0)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	g.render(&b, body, 0, true)
	return b.String(), nil
}

// GenerateForLibrary produces a sample document for a DOCLibrary root
// ABIE, resolving the target namespace and root element name through
// the resolve-phase model index (the same artifacts the generator
// memoized) instead of requiring the caller to re-derive them. A nil
// index resolves one from the library.
func GenerateForLibrary(set *xsdval.SchemaSet, ix *core.ModelIndex, lib *core.Library, rootABIE *core.ABIE, opts Options) (string, error) {
	if lib == nil {
		return "", fmt.Errorf("instgen: nil library")
	}
	if rootABIE == nil {
		return "", fmt.Errorf("instgen: nil root ABIE")
	}
	if ix == nil {
		if ix = set.Index(); ix == nil {
			ix = core.IndexLibraries(lib)
		}
	}
	return Generate(set, ix.Namespace(lib), ix.ABIEElementName(rootABIE), opts)
}

// node is a generated element tree.
type node struct {
	name  string
	ns    string
	attrs []attrValue
	kids  []*node
	text  string
	leaf  bool
}

type attrValue struct {
	name  string
	value string
}

type generator struct {
	set      *xsdval.SchemaSet
	opts     Options
	prefixes map[string]string // namespace -> prefix
}

func (g *generator) prefixFor(ns string) string {
	if p, ok := g.prefixes[ns]; ok {
		return p
	}
	p := fmt.Sprintf("n%d", len(g.prefixes)+1)
	g.prefixes[ns] = p
	return p
}

// element generates the tree for one element declaration.
func (g *generator) element(schema *xsd.Schema, decl *xsd.Element, name, ns string, depth int) (*node, error) {
	if decl.Ref != "" {
		refURI, local, err := schema.ResolveQName(decl.Ref)
		if err != nil {
			return nil, fmt.Errorf("instgen: %w", err)
		}
		target := g.set.Schema(refURI)
		if target == nil {
			return nil, fmt.Errorf("instgen: no schema for %q", refURI)
		}
		global := target.GlobalElement(local)
		if global == nil {
			return nil, fmt.Errorf("instgen: no global element %q in %q", local, refURI)
		}
		return g.element(target, global, local, refURI, depth)
	}
	n := &node{name: name, ns: ns}
	if decl.Type == "" {
		n.leaf = true
		return n, nil
	}
	typeURI, local, err := schema.ResolveQName(decl.Type)
	if err != nil {
		return nil, fmt.Errorf("instgen: %w", err)
	}
	if typeURI == xsd.XSDNamespace {
		n.text = sampleValue(local, nil)
		n.leaf = true
		return n, nil
	}
	target := g.set.Schema(typeURI)
	if target == nil {
		return nil, fmt.Errorf("instgen: no schema for namespace %q (type %q)", typeURI, decl.Type)
	}
	if ct := target.ComplexType(local); ct != nil {
		return n, g.fillComplex(target, ct, n, depth)
	}
	if st := target.SimpleType(local); st != nil {
		n.text = g.simpleTypeValue(target, st)
		n.leaf = true
		return n, nil
	}
	return nil, fmt.Errorf("instgen: type %q not found in %q", local, typeURI)
}

func (g *generator) fillComplex(schema *xsd.Schema, ct *xsd.ComplexType, n *node, depth int) error {
	if sc := ct.SimpleContent; sc != nil && sc.Extension != nil {
		n.leaf = true
		n.text = g.valueForRef(schema, sc.Extension.Base)
		for _, a := range sc.Extension.Attributes {
			if a.Use != "required" && g.opts.Mode == Minimal {
				continue
			}
			n.attrs = append(n.attrs, attrValue{
				name:  a.Name,
				value: g.valueForRef(schema, a.Type),
			})
		}
		return nil
	}
	if depth >= g.opts.MaxDepth {
		// Depth bound reached: cut off (may produce an invalid document
		// only for pathologically deep mandatory recursion, which the
		// model validator flags as SEM-CYC-1 anyway).
		return nil
	}
	for _, particle := range ct.Sequence {
		min, count := particleCounts(particle.Occurs, g.opts.Mode)
		if count == 0 {
			continue
		}
		_ = min
		for i := 0; i < count; i++ {
			name := particle.Name
			ns := schema.TargetNamespace
			child, err := g.element(schema, particle, name, ns, depth+1)
			if err != nil {
				return err
			}
			n.kids = append(n.kids, child)
		}
	}
	return nil
}

// particleCounts decides how many occurrences to emit.
func particleCounts(o xsd.Occurs, mode Mode) (min, count int) {
	minV := 1
	maxV := 1
	if o != (xsd.Occurs{}) {
		minV, maxV = o.Min, o.Max
	}
	switch mode {
	case Minimal:
		return minV, minV
	default:
		if maxV == xsd.Unbounded {
			if minV > 2 {
				return minV, minV
			}
			return minV, 2
		}
		if maxV < 1 {
			return minV, minV
		}
		n := 1
		if n < minV {
			n = minV
		}
		return minV, n
	}
}

// valueForRef produces a sample value for a type reference.
func (g *generator) valueForRef(schema *xsd.Schema, ref string) string {
	uri, local, err := schema.ResolveQName(ref)
	if err != nil {
		return "sample"
	}
	if uri == xsd.XSDNamespace {
		return sampleValue(local, nil)
	}
	target := g.set.Schema(uri)
	if target == nil {
		return "sample"
	}
	if st := target.SimpleType(local); st != nil {
		return g.simpleTypeValue(target, st)
	}
	if ct := target.ComplexType(local); ct != nil && ct.SimpleContent != nil && ct.SimpleContent.Extension != nil {
		return g.valueForRef(target, ct.SimpleContent.Extension.Base)
	}
	return "sample"
}

// simpleTypeValue produces a value satisfying a simple type's facets.
func (g *generator) simpleTypeValue(schema *xsd.Schema, st *xsd.SimpleType) string {
	r := st.Restriction
	if r == nil {
		return "sample"
	}
	if len(r.Enumerations) > 0 {
		return r.Enumerations[0]
	}
	base := "string"
	if r.Base != "" {
		if uri, local, err := schema.ResolveQName(r.Base); err == nil && uri == xsd.XSDNamespace {
			base = local
		}
	}
	return sampleValue(base, r)
}

// sampleValue produces a lexically valid value for an XSD built-in,
// honouring length facets when provided.
func sampleValue(builtin string, r *xsd.Restriction) string {
	var v string
	switch builtin {
	case "boolean":
		v = "true"
	case "integer", "int", "long", "short", "nonNegativeInteger", "positiveInteger":
		v = "1"
	case "decimal":
		v = "1.0"
	case "double", "float":
		v = "1.5"
	case "date":
		v = "2007-04-15"
	case "time":
		v = "12:00:00"
	case "dateTime":
		v = "2007-04-15T12:00:00"
	case "duration":
		v = "P1D"
	case "base64Binary":
		v = "c2FtcGxl" // "sample"
	default:
		v = "sample"
	}
	if r != nil {
		if r.Pattern != "" {
			// Facet patterns the NDR subset uses are plain enumeration
			// alternates or digit runs; fall back to digits.
			if strings.Contains(r.Pattern, "[0-9]") {
				v = strings.Repeat("1", patternDigits(r.Pattern))
			}
		}
		if r.MinLength != nil && len(v) < *r.MinLength {
			v += strings.Repeat("x", *r.MinLength-len(v))
		}
		if r.MaxLength != nil && len(v) > *r.MaxLength {
			v = v[:*r.MaxLength]
		}
	}
	return v
}

// patternDigits guesses a digit count from patterns like "[0-9]{4}".
func patternDigits(pattern string) int {
	open := strings.Index(pattern, "{")
	close := strings.Index(pattern, "}")
	if open >= 0 && close > open {
		var n int
		if _, err := fmt.Sscanf(pattern[open+1:close], "%d", &n); err == nil && n > 0 && n < 64 {
			return n
		}
	}
	return 1
}

// render serialises the node tree with namespace declarations on the
// root element.
func (g *generator) render(b *bytes.Buffer, n *node, depth int, root bool) {
	indent := strings.Repeat("  ", depth)
	prefix := g.prefixFor(n.ns)
	b.WriteString(indent + "<" + prefix + ":" + n.name)
	if root {
		// Declare every namespace used anywhere in the tree.
		g.collectNamespaces(n)
		nss := make([]string, 0, len(g.prefixes))
		for ns := range g.prefixes {
			nss = append(nss, ns)
		}
		sort.Strings(nss)
		for _, ns := range nss {
			b.WriteString("\n" + indent + "    xmlns:" + g.prefixes[ns] + `="`)
			xmlesc.Attr(b, ns)
			b.WriteByte('"')
		}
	}
	for _, a := range n.attrs {
		b.WriteString(" " + a.name + `="`)
		xmlesc.Attr(b, a.value)
		b.WriteByte('"')
	}
	switch {
	case len(n.kids) == 0 && n.text == "":
		b.WriteString("/>\n")
	case len(n.kids) == 0:
		b.WriteByte('>')
		xmlesc.Text(b, n.text)
		b.WriteString("</" + prefix + ":" + n.name + ">\n")
	default:
		b.WriteString(">\n")
		for _, k := range n.kids {
			g.render(b, k, depth+1, false)
		}
		b.WriteString(indent + "</" + prefix + ":" + n.name + ">\n")
	}
}

func (g *generator) collectNamespaces(n *node) {
	g.prefixFor(n.ns)
	for _, k := range n.kids {
		g.collectNamespaces(k)
	}
}
