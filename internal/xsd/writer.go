package xsd

import (
	"bytes"
	"io"
	"strconv"
	"strings"

	"github.com/go-ccts/ccts/internal/xmlesc"
)

// Write serialises the schema as a deterministic, indented XSD document.
// Output is byte-stable for identical inputs so tests can assert exact
// structure.
func (s *Schema) Write(w io.Writer) error {
	var b bytes.Buffer
	s.writeTo(&b)
	_, err := w.Write(b.Bytes())
	return err
}

// String returns the serialised schema document.
func (s *Schema) String() string {
	var b bytes.Buffer
	s.writeTo(&b)
	return b.String()
}

func (s *Schema) writeTo(b *bytes.Buffer) {
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString("<xsd:schema")
	attr := func(name, value string) {
		b.WriteString("\n   ")
		writeAttr(b, name, value)
	}
	attr("xmlns:xsd", XSDNamespace)
	for _, n := range s.Namespaces {
		switch n.Prefix {
		case "xsd":
			continue
		case "":
			attr("xmlns", n.URI)
		default:
			attr("xmlns:"+n.Prefix, n.URI)
		}
	}
	if s.TargetNamespace != "" {
		attr("targetNamespace", s.TargetNamespace)
	}
	if s.ElementFormDefault != "" {
		attr("elementFormDefault", s.ElementFormDefault)
	}
	if s.AttributeFormDefault != "" {
		attr("attributeFormDefault", s.AttributeFormDefault)
	}
	if s.Version != "" {
		attr("version", s.Version)
	}
	b.WriteString(">\n")

	for _, imp := range s.Imports {
		b.WriteString("  <xsd:import")
		writeAttr(b, "namespace", imp.Namespace)
		writeAttr(b, "schemaLocation", imp.SchemaLocation)
		b.WriteString("/>\n")
	}
	for _, t := range s.SimpleTypes {
		writeSimpleType(b, t)
	}
	for _, t := range s.ComplexTypes {
		writeComplexType(b, t)
	}
	for _, e := range s.Elements {
		writeElement(b, e, 1)
	}
	b.WriteString("</xsd:schema>\n")
}

func indent(b *bytes.Buffer, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// writeAttr writes ` name="value"` with the value escaped.
func writeAttr(b *bytes.Buffer, name, value string) {
	b.WriteString(" " + name + `="`)
	escape(b, value, xmlesc.Attr)
	b.WriteByte('"')
}

// writeFacet writes one facet element, <xsd:name value="value"/>.
func writeFacet(b *bytes.Buffer, name, value string, depth int) {
	indent(b, depth)
	b.WriteString("<xsd:" + name)
	writeAttr(b, "value", value)
	b.WriteString("/>\n")
}

func writeAnnotation(b *bytes.Buffer, a *Annotation, depth int) {
	if a == nil || len(a.Documentation) == 0 {
		return
	}
	indent(b, depth)
	b.WriteString("<xsd:annotation>\n")
	indent(b, depth+1)
	b.WriteString("<xsd:documentation>\n")
	for _, d := range a.Documentation {
		indent(b, depth+2)
		b.WriteString("<ccts:" + d.Tag + ">")
		escape(b, d.Value, xmlesc.Text)
		b.WriteString("</ccts:" + d.Tag + ">\n")
	}
	indent(b, depth+1)
	b.WriteString("</xsd:documentation>\n")
	indent(b, depth)
	b.WriteString("</xsd:annotation>\n")
}

func writeOccurs(b *bytes.Buffer, o Occurs) {
	min, max := o.normalized()
	if min != 1 || o.Explicit {
		b.WriteString(` minOccurs="` + strconv.Itoa(min) + `"`)
	}
	if max == Unbounded {
		b.WriteString(` maxOccurs="unbounded"`)
	} else if max != 1 || o.Explicit {
		b.WriteString(` maxOccurs="` + strconv.Itoa(max) + `"`)
	}
}

func writeElement(b *bytes.Buffer, e *Element, depth int) {
	indent(b, depth)
	b.WriteString("<xsd:element")
	writeOccurs(b, e.Occurs)
	if e.Ref != "" {
		writeAttr(b, "ref", e.Ref)
	} else {
		writeAttr(b, "name", e.Name)
		if e.Type != "" {
			writeAttr(b, "type", e.Type)
		}
	}
	if e.Annotation == nil || len(e.Annotation.Documentation) == 0 {
		b.WriteString("/>\n")
		return
	}
	b.WriteString(">\n")
	writeAnnotation(b, e.Annotation, depth+1)
	indent(b, depth)
	b.WriteString("</xsd:element>\n")
}

func writeAttribute(b *bytes.Buffer, a *Attribute, depth int) {
	indent(b, depth)
	b.WriteString("<xsd:attribute")
	writeAttr(b, "name", a.Name)
	writeAttr(b, "type", a.Type)
	if a.Use != "" {
		writeAttr(b, "use", a.Use)
	}
	if a.Annotation == nil || len(a.Annotation.Documentation) == 0 {
		b.WriteString("/>\n")
		return
	}
	b.WriteString(">\n")
	writeAnnotation(b, a.Annotation, depth+1)
	indent(b, depth)
	b.WriteString("</xsd:attribute>\n")
}

func writeComplexType(b *bytes.Buffer, t *ComplexType) {
	indent(b, 1)
	b.WriteString("<xsd:complexType")
	writeAttr(b, "name", t.Name)
	b.WriteString(">\n")
	writeAnnotation(b, t.Annotation, 2)
	switch {
	case t.SimpleContent != nil && t.SimpleContent.Extension != nil:
		indent(b, 2)
		b.WriteString("<xsd:simpleContent>\n")
		indent(b, 3)
		b.WriteString("<xsd:extension")
		writeAttr(b, "base", t.SimpleContent.Extension.Base)
		b.WriteString(">\n")
		for _, a := range t.SimpleContent.Extension.Attributes {
			writeAttribute(b, a, 4)
		}
		indent(b, 3)
		b.WriteString("</xsd:extension>\n")
		indent(b, 2)
		b.WriteString("</xsd:simpleContent>\n")
	default:
		indent(b, 2)
		b.WriteString("<xsd:sequence>\n")
		for _, e := range t.Sequence {
			writeElement(b, e, 3)
		}
		indent(b, 2)
		b.WriteString("</xsd:sequence>\n")
	}
	indent(b, 1)
	b.WriteString("</xsd:complexType>\n")
}

func writeSimpleType(b *bytes.Buffer, t *SimpleType) {
	indent(b, 1)
	b.WriteString("<xsd:simpleType")
	writeAttr(b, "name", t.Name)
	b.WriteString(">\n")
	writeAnnotation(b, t.Annotation, 2)
	if r := t.Restriction; r != nil {
		indent(b, 2)
		b.WriteString("<xsd:restriction")
		writeAttr(b, "base", r.Base)
		b.WriteString(">\n")
		for _, v := range r.Enumerations {
			writeFacet(b, "enumeration", v, 3)
		}
		if r.Pattern != "" {
			writeFacet(b, "pattern", r.Pattern, 3)
		}
		if r.MinLength != nil {
			writeFacet(b, "minLength", strconv.Itoa(*r.MinLength), 3)
		}
		if r.MaxLength != nil {
			writeFacet(b, "maxLength", strconv.Itoa(*r.MaxLength), 3)
		}
		indent(b, 2)
		b.WriteString("</xsd:restriction>\n")
	}
	indent(b, 1)
	b.WriteString("</xsd:simpleType>\n")
}

// escape writes s through the shared escaper write; unlike the other
// XML writers, XSD output also escapes ' as &apos;.
func escape(b *bytes.Buffer, s string, write func(*bytes.Buffer, string)) {
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			write(b, s)
			return
		}
		write(b, s[:i])
		b.WriteString("&apos;")
		s = s[i+1:]
	}
}
