// Package gogen transforms business information entities into Go
// message-binding code. The paper describes exactly this step for the
// object-oriented world: "Similar to the concept pursued in object
// orientation, the two association core components Work and Private will
// become attributes of the aggregate core component Person once the
// model is transferred into code."
//
// For a DOCLibrary root the generator emits one self-contained Go file:
// a struct per reachable ABIE (BBIEs and ASBIEs become fields with
// encoding/xml tags matching the generated schemas), a struct per used
// data type (chardata value plus supplementary-component attributes),
// and constants for enumeration values. Values marshalled with
// encoding/xml validate against the XSD set generated from the same
// model; the test suite compiles and runs generated code to prove it.
package gogen

import (
	"fmt"
	"sort"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/ndr"
	"github.com/go-ccts/ccts/internal/uml"
)

// generate emits the Go bindings of a document plan, rooted at its
// root ABIE, as package messages. Field tags carry each library's
// effective namespace, profile rewrites applied, so marshalled values
// land in the namespaces of the schemas generated from the same plan.
func generate(p *gen.Plan) (string, error) {
	root := p.Root()
	if root == nil {
		return "", fmt.Errorf("gogen: the go target requires a DOCLibrary document run with a root element")
	}
	g := &generator{
		ns:        p.Namespace,
		usedNames: map[string]bool{},
		typeName:  map[any]string{},
	}
	rootType, err := g.abie(root)
	if err != nil {
		return "", err
	}
	g.markRoot(root, rootType)
	return g.render(), nil
}

type typeDecl struct {
	name string
	code string
	doc  string
}

type generator struct {
	ns        func(*core.Library) string
	decls     []typeDecl
	usedNames map[string]bool
	typeName  map[any]string
	consts    []string
}

// uniqueName allocates a collision-free exported Go identifier.
func (g *generator) uniqueName(base string) string {
	name := goIdent(base)
	candidate := name
	for i := 2; g.usedNames[candidate]; i++ {
		candidate = fmt.Sprintf("%s%d", name, i)
	}
	g.usedNames[candidate] = true
	return candidate
}

// goIdent sanitises a model name into an exported Go identifier.
func goIdent(name string) string {
	var b strings.Builder
	upperNext := true
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
			if upperNext {
				b.WriteString(strings.ToUpper(string(r)))
				upperNext = false
			} else {
				b.WriteRune(r)
			}
		case r >= '0' && r <= '9':
			if b.Len() == 0 {
				b.WriteString("N")
			}
			b.WriteRune(r)
			upperNext = false
		case r == '_':
			b.WriteRune(r)
			upperNext = true
		default:
			upperNext = true
		}
	}
	if b.Len() == 0 {
		return "X"
	}
	return b.String()
}

// abie emits the struct for an ABIE and returns its Go type name.
func (g *generator) abie(abie *core.ABIE) (string, error) {
	if name, ok := g.typeName[abie]; ok {
		return name, nil
	}
	lib := abie.Library()
	if lib == nil {
		return "", fmt.Errorf("gogen: ABIE %q has no owning library", abie.Name)
	}
	name := g.uniqueName(abie.Name)
	g.typeName[abie] = name // pre-register for recursive models

	var fields []string
	for _, bbie := range abie.BBIEs {
		ft, err := g.dataType(bbie.Type)
		if err != nil {
			return "", fmt.Errorf("gogen: BBIE %q of ABIE %q: %w", bbie.Name, abie.Name, err)
		}
		fields = append(fields, field(
			goIdent(bbie.Name),
			ft,
			g.ns(lib), ndr.XMLName(bbie.Name),
			bbie.Card,
			bbie.DEN(),
		))
	}
	for _, asbie := range abie.ASBIEs {
		tt, err := g.abie(asbie.Target)
		if err != nil {
			return "", err
		}
		elementName := ndr.ASBIEElementName(asbie.Role, asbie.Target.Name)
		fields = append(fields, field(
			goIdent(elementName),
			tt,
			g.ns(lib), elementName,
			asbie.Card,
			asbie.DEN(),
		))
	}
	code := fmt.Sprintf("type %s struct {\n%s}\n", name, strings.Join(fields, ""))
	g.decls = append(g.decls, typeDecl{
		name: name,
		code: code,
		doc:  fmt.Sprintf("// %s binds the ABIE %q (%s).\n", name, abie.Name, abie.DEN()),
	})
	return name, nil
}

// field renders one struct field with its xml tag.
func field(goName, goType, ns, element string, card core.Cardinality, den string) string {
	tag := fmt.Sprintf("%s %s", ns, element)
	typ := goType
	omit := ""
	switch {
	case card.Upper == uml.Unbounded || card.Upper > 1:
		typ = "[]" + goType
		omit = ",omitempty"
	case card.Lower == 0:
		typ = "*" + goType
		omit = ",omitempty"
	}
	return fmt.Sprintf("\t// %s\n\t%s %s `xml:\"%s%s\"`\n", den, goName, typ, tag, omit)
}

// dataType emits the struct for a CDT/QDT and returns its Go type name.
func (g *generator) dataType(dt core.DataType) (string, error) {
	if name, ok := g.typeName[dt]; ok {
		return name, nil
	}
	var (
		content core.ContentComponent
		sups    []core.SupplementaryComponent
		den     string
	)
	switch t := dt.(type) {
	case *core.CDT:
		content, sups, den = t.Content, t.Sups, t.DEN()
	case *core.QDT:
		content, sups, den = t.Content, t.Sups, t.DEN()
	default:
		return "", fmt.Errorf("unsupported data type %T", dt)
	}
	name := g.uniqueName(dt.TypeName() + "Type")
	g.typeName[dt] = name

	var fields []string
	fields = append(fields, fmt.Sprintf("\t// %s carries the content component.\n\tValue string `xml:\",chardata\"`\n", "Value"))
	for i := range sups {
		sup := &sups[i]
		omit := ""
		if sup.Card.Lower == 0 {
			omit = ",omitempty"
		}
		fields = append(fields, fmt.Sprintf("\t%s string `xml:\"%s,attr%s\"`\n",
			goIdent(sup.Name), ndr.XMLName(sup.Name), omit))
	}
	code := fmt.Sprintf("type %s struct {\n%s}\n", name, strings.Join(fields, ""))
	g.decls = append(g.decls, typeDecl{
		name: name,
		code: code,
		doc:  fmt.Sprintf("// %s binds the data type %q (%s).\n", name, dt.TypeName(), den),
	})
	if e, ok := content.Type.(*core.ENUM); ok {
		g.enumConstants(name, e)
	}
	return name, nil
}

// enumConstants emits one string constant per enumeration literal.
func (g *generator) enumConstants(typeName string, e *core.ENUM) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Values allowed for the content of %s (%s).\nconst (\n", typeName, e.Name)
	seen := map[string]bool{}
	for _, l := range e.Literals {
		constName := goIdent(typeName + "_" + l.Name)
		if seen[constName] {
			continue
		}
		seen[constName] = true
		fmt.Fprintf(&b, "\t%s = %q // %s\n", constName, l.Name, l.Value)
	}
	b.WriteString(")\n")
	g.consts = append(g.consts, b.String())
}

// markRoot attaches the XMLName field to the root struct so marshalled
// documents carry the root element name.
func (g *generator) markRoot(root *core.ABIE, rootType string) {
	for i := range g.decls {
		if g.decls[i].name != rootType {
			continue
		}
		insert := fmt.Sprintf("\t// XMLName fixes the root element name.\n\tXMLName xml.Name `xml:\"%s %s\"`\n",
			g.ns(root.Library()), ndr.XMLName(root.Name))
		g.decls[i].code = strings.Replace(g.decls[i].code, "struct {\n", "struct {\n"+insert, 1)
		return
	}
}

// render assembles the final source file, deterministically ordered.
func (g *generator) render() string {
	var b strings.Builder
	b.WriteString("// Code generated by go-ccts gogen; DO NOT EDIT.\n")
	b.WriteString("// Message bindings derived from a CCTS core components model.\n\n")
	b.WriteString("package messages\n\nimport \"encoding/xml\"\n\n")
	// Keep generation order (root first, dependencies after) but make
	// the enum constants stable.
	for _, d := range g.decls {
		b.WriteString(d.doc)
		b.WriteString(d.code)
		b.WriteString("\n")
	}
	consts := append([]string(nil), g.consts...)
	sort.Strings(consts)
	for _, c := range consts {
		b.WriteString(c)
		b.WriteString("\n")
	}
	// encoding/xml is only referenced by the root struct; keep the
	// import always-used with a blank assertion.
	b.WriteString("// Ensure the xml import is used even for rootless fragments.\nvar _ = xml.Name{}\n")
	return b.String()
}
