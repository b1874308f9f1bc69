// Package xmi serialises UML models to an XMI 2.1-style XML interchange
// format and reads them back. The paper motivates the UML profile partly
// by interchange: "we hope ... to use XMI for registering and exchanging
// core components." The format follows the XMI packagedElement structure
// with xmi:id/xmi:type attributes; stereotypes and tagged values are
// carried inline (as attribute and child elements) rather than through a
// separate profile-application section, which keeps documents
// self-contained and diffable.
package xmi

import (
	"bytes"
	"io"
	"strconv"
	"strings"

	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmlesc"
)

// Namespaces of the interchange format.
const (
	XMINamespace = "http://schema.omg.org/spec/XMI/2.1"
	UMLNamespace = "http://schema.omg.org/spec/UML/2.1"
)

// Export writes the model as an XMI document.
func Export(m *uml.Model, w io.Writer) error {
	e := &exporter{ids: map[any]string{}}
	e.assignIDs(m)
	e.write(m)
	_, err := w.Write(e.b.Bytes())
	return err
}

// ExportString returns the XMI document as a string.
func ExportString(m *uml.Model) string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = Export(m, &b)
	return b.String()
}

type exporter struct {
	ids     map[any]string
	counter int
	b       bytes.Buffer
}

func (e *exporter) id(element any) string {
	if id, ok := e.ids[element]; ok {
		return id
	}
	e.counter++
	id := "id" + strconv.Itoa(e.counter)
	e.ids[element] = id
	return id
}

// assignIDs walks the model in document order so identifiers are stable
// across exports of the same model.
func (e *exporter) assignIDs(m *uml.Model) {
	m.WalkPackages(func(p *uml.Package) bool {
		e.id(p)
		for _, c := range p.Classes {
			e.id(c)
			for _, a := range c.Attributes {
				e.id(a)
			}
		}
		for _, en := range p.Enumerations {
			e.id(en)
		}
		for _, a := range p.Associations {
			e.id(a)
		}
		for _, d := range p.Dependencies {
			e.id(d)
		}
		return true
	})
}

func (e *exporter) indent(depth int) {
	for i := 0; i < depth; i++ {
		e.b.WriteString("  ")
	}
}

// attr writes one attribute, ` name="value"`, with the value escaped.
func (e *exporter) attr(name, value string) {
	e.b.WriteString(" " + name + `="`)
	xmlesc.Attr(&e.b, value)
	e.b.WriteByte('"')
}

func (e *exporter) writeTags(tags uml.TaggedValues, depth int) {
	for _, name := range tags.Names() {
		e.indent(depth)
		e.b.WriteString("<taggedValue")
		e.attr("tag", name)
		e.attr("value", tags.Get(name))
		e.b.WriteString("/>\n")
	}
}

// mult writes the lower and upper attributes of a multiplicity.
func (e *exporter) mult(m uml.Multiplicity) {
	upper := "*"
	if m.Upper != uml.Unbounded {
		upper = strconv.Itoa(m.Upper)
	}
	e.attr("lower", strconv.Itoa(m.Lower))
	e.attr("upper", upper)
}

func (e *exporter) write(m *uml.Model) {
	e.b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	e.b.WriteString(`<xmi:XMI xmi:version="2.1" xmlns:xmi="` + XMINamespace + `" xmlns:uml="` + UMLNamespace + "\">\n")
	e.b.WriteString(`  <uml:Model xmi:id="model"`)
	e.attr("name", m.Name)
	e.b.WriteString(">\n")
	e.writeTags(m.Tags, 2)
	for _, p := range m.Packages {
		e.writePackage(p, 2)
	}
	e.b.WriteString("  </uml:Model>\n")
	e.b.WriteString("</xmi:XMI>\n")
}

func (e *exporter) writePackage(p *uml.Package, depth int) {
	e.indent(depth)
	e.b.WriteString(`<packagedElement xmi:type="uml:Package"`)
	e.attr("xmi:id", e.id(p))
	e.attr("name", p.Name)
	e.attr("stereotype", p.Stereotype)
	e.b.WriteString(">\n")
	e.writeTags(p.Tags, depth+1)
	for _, c := range p.Classes {
		e.writeClass(c, depth+1)
	}
	for _, en := range p.Enumerations {
		e.writeEnumeration(en, depth+1)
	}
	for _, a := range p.Associations {
		e.writeAssociation(a, depth+1)
	}
	for _, d := range p.Dependencies {
		e.writeDependency(d, depth+1)
	}
	for _, child := range p.Packages {
		e.writePackage(child, depth+1)
	}
	e.indent(depth)
	e.b.WriteString("</packagedElement>\n")
}

func (e *exporter) writeClass(c *uml.Class, depth int) {
	e.indent(depth)
	e.b.WriteString(`<packagedElement xmi:type="uml:Class"`)
	e.attr("xmi:id", e.id(c))
	e.attr("name", c.Name)
	e.attr("stereotype", c.Stereotype)
	if len(c.Attributes) == 0 && len(c.Tags) == 0 {
		e.b.WriteString("/>\n")
		return
	}
	e.b.WriteString(">\n")
	e.writeTags(c.Tags, depth+1)
	for _, a := range c.Attributes {
		e.indent(depth + 1)
		e.b.WriteString("<ownedAttribute")
		e.attr("xmi:id", e.id(a))
		e.attr("name", a.Name)
		e.attr("stereotype", a.Stereotype)
		e.attr("type", a.TypeName)
		e.mult(a.Mult)
		if len(a.Tags) == 0 {
			e.b.WriteString("/>\n")
			continue
		}
		e.b.WriteString(">\n")
		e.writeTags(a.Tags, depth+2)
		e.indent(depth + 1)
		e.b.WriteString("</ownedAttribute>\n")
	}
	e.indent(depth)
	e.b.WriteString("</packagedElement>\n")
}

func (e *exporter) writeEnumeration(en *uml.Enumeration, depth int) {
	e.indent(depth)
	e.b.WriteString(`<packagedElement xmi:type="uml:Enumeration"`)
	e.attr("xmi:id", e.id(en))
	e.attr("name", en.Name)
	e.attr("stereotype", en.Stereotype)
	e.b.WriteString(">\n")
	e.writeTags(en.Tags, depth+1)
	for _, l := range en.Literals {
		e.indent(depth + 1)
		e.b.WriteString("<ownedLiteral")
		e.attr("name", l.Name)
		e.attr("value", l.Value)
		e.b.WriteString("/>\n")
	}
	e.indent(depth)
	e.b.WriteString("</packagedElement>\n")
}

func (e *exporter) writeAssociation(a *uml.Association, depth int) {
	e.indent(depth)
	e.b.WriteString(`<packagedElement xmi:type="uml:Association"`)
	e.attr("xmi:id", e.id(a))
	e.attr("stereotype", a.Stereotype)
	e.attr("source", e.id(a.Source))
	e.attr("target", e.id(a.Target))
	e.attr("role", a.TargetRole)
	e.attr("aggregation", a.Kind.String())
	e.mult(a.TargetMult)
	if len(a.Tags) == 0 {
		e.b.WriteString("/>\n")
		return
	}
	e.b.WriteString(">\n")
	e.writeTags(a.Tags, depth+1)
	e.indent(depth)
	e.b.WriteString("</packagedElement>\n")
}

func (e *exporter) writeDependency(d *uml.Dependency, depth int) {
	e.indent(depth)
	e.b.WriteString(`<packagedElement xmi:type="uml:Dependency"`)
	e.attr("xmi:id", e.id(d))
	e.attr("stereotype", d.Stereotype)
	e.attr("client", e.id(d.Client))
	e.attr("supplier", e.id(d.Supplier))
	e.b.WriteString("/>\n")
}
