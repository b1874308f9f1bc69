package xsd

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan/xmloracle"
)

// This file is the XSD parser that Parse replaced, on encoding/xml
// behind xmloracle.Decoder, kept unchanged as the differential oracle of
// the scanner-based parser (differential_test.go). Only its identifiers
// take an oracle prefix, and its Parse and ParseString wrappers are
// dropped.

// oracleParse parses a schema under explicit resource limits (the
// zero Limits disables all checks). Limit violations and parse errors
// carry the line:col position at which they occurred.
func oracleParse(r io.Reader, lim limits.Limits) (*Schema, error) {
	dec := xmloracle.NewDecoder(r, lim)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, oracleErrf(dec, "no schema element found")
		}
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		if start.Name.Space != XSDNamespace || start.Name.Local != "schema" {
			return nil, oracleErrf(dec, "root element is {%s}%s, want {%s}schema",
				start.Name.Space, start.Name.Local, XSDNamespace)
		}
		return oracleParseSchema(dec, start)
	}
}

// oracleErrf builds a parse error positioned at the decoder's current
// offset.
func oracleErrf(dec *xmloracle.Decoder, format string, args ...any) error {
	line, col := dec.Pos()
	return &limits.PosError{Op: "xsd", Line: line, Col: col, Err: fmt.Errorf(format, args...)}
}

func oracleParseSchema(dec *xmloracle.Decoder, start xml.StartElement) (*Schema, error) {
	s := &Schema{}
	for _, a := range start.Attr {
		switch {
		case a.Name.Space == "xmlns":
			// The writer re-adds xmlns:xsd itself; keep every other
			// prefixed declaration.
			if !(a.Name.Local == "xsd" && a.Value == XSDNamespace) {
				s.Namespaces = append(s.Namespaces, Namespace{Prefix: a.Name.Local, URI: a.Value})
			}
		case a.Name.Local == "xmlns" && a.Name.Space == "":
			s.Namespaces = append(s.Namespaces, Namespace{Prefix: "", URI: a.Value})
		case a.Name.Local == "targetNamespace":
			s.TargetNamespace = a.Value
		case a.Name.Local == "elementFormDefault":
			s.ElementFormDefault = a.Value
		case a.Name.Local == "attributeFormDefault":
			s.AttributeFormDefault = a.Value
		case a.Name.Local == "version":
			s.Version = a.Value
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != XSDNamespace {
				if err := dec.Skip(); err != nil {
					return nil, dec.Wrap("xsd", err)
				}
				continue
			}
			switch t.Name.Local {
			case "import":
				var imp Import
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "namespace":
						imp.Namespace = a.Value
					case "schemaLocation":
						imp.SchemaLocation = a.Value
					}
				}
				s.Imports = append(s.Imports, imp)
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			case "element":
				e, err := oracleParseElement(dec, t)
				if err != nil {
					return nil, err
				}
				s.Elements = append(s.Elements, e)
			case "complexType":
				ct, err := oracleParseComplexType(dec, t)
				if err != nil {
					return nil, err
				}
				s.ComplexTypes = append(s.ComplexTypes, ct)
			case "simpleType":
				st, err := oracleParseSimpleType(dec, t)
				if err != nil {
					return nil, err
				}
				s.SimpleTypes = append(s.SimpleTypes, st)
			case "annotation":
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			default:
				return nil, oracleErrf(dec, "unsupported schema child <xsd:%s>", t.Name.Local)
			}
		case xml.EndElement:
			return s, nil
		}
	}
}

func oracleParseOccurs(dec *xmloracle.Decoder, attrs []xml.Attr) (Occurs, error) {
	o := Occurs{Min: 1, Max: 1}
	explicit := false
	for _, a := range attrs {
		switch a.Name.Local {
		case "minOccurs":
			n, err := strconv.Atoi(a.Value)
			if err != nil || n < 0 {
				return o, oracleErrf(dec, "invalid minOccurs %q", a.Value)
			}
			o.Min = n
			explicit = true
		case "maxOccurs":
			if a.Value == "unbounded" {
				o.Max = Unbounded
			} else {
				n, err := strconv.Atoi(a.Value)
				if err != nil || n < 0 {
					return o, oracleErrf(dec, "invalid maxOccurs %q", a.Value)
				}
				o.Max = n
			}
			explicit = true
		}
	}
	o.Explicit = explicit
	return o, nil
}

func oracleParseElement(dec *xmloracle.Decoder, start xml.StartElement) (*Element, error) {
	e := &Element{}
	var err error
	if e.Occurs, err = oracleParseOccurs(dec, start.Attr); err != nil {
		return nil, err
	}
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "name":
			e.Name = a.Value
		case "type":
			e.Type = a.Value
		case "ref":
			e.Ref = a.Value
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == XSDNamespace && t.Name.Local == "annotation" {
				ann, err := oracleParseAnnotation(dec)
				if err != nil {
					return nil, err
				}
				e.Annotation = ann
				continue
			}
			return nil, oracleErrf(dec, "unsupported element child <%s> (anonymous types are not part of the NDR subset)", t.Name.Local)
		case xml.EndElement:
			if e.Name == "" && e.Ref == "" {
				return nil, oracleErrf(dec, "element without name or ref")
			}
			return e, nil
		}
	}
}

func oracleParseAttribute(dec *xmloracle.Decoder, start xml.StartElement) (*Attribute, error) {
	a := &Attribute{}
	for _, at := range start.Attr {
		switch at.Name.Local {
		case "name":
			a.Name = at.Value
		case "type":
			a.Type = at.Value
		case "use":
			a.Use = at.Value
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == XSDNamespace && t.Name.Local == "annotation" {
				ann, err := oracleParseAnnotation(dec)
				if err != nil {
					return nil, err
				}
				a.Annotation = ann
				continue
			}
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if a.Name == "" {
				return nil, oracleErrf(dec, "attribute without name")
			}
			return a, nil
		}
	}
}

func oracleParseComplexType(dec *xmloracle.Decoder, start xml.StartElement) (*ComplexType, error) {
	ct := &ComplexType{}
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			ct.Name = a.Value
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != XSDNamespace {
				if err := dec.Skip(); err != nil {
					return nil, err
				}
				continue
			}
			switch t.Name.Local {
			case "sequence":
				seq, err := oracleParseSequence(dec)
				if err != nil {
					return nil, err
				}
				ct.Sequence = seq
			case "simpleContent":
				sc, err := oracleParseSimpleContent(dec)
				if err != nil {
					return nil, err
				}
				ct.SimpleContent = sc
			case "annotation":
				ann, err := oracleParseAnnotation(dec)
				if err != nil {
					return nil, err
				}
				ct.Annotation = ann
			default:
				return nil, oracleErrf(dec, "unsupported complexType child <xsd:%s>", t.Name.Local)
			}
		case xml.EndElement:
			if ct.Name == "" {
				return nil, oracleErrf(dec, "anonymous complex types are not part of the NDR subset")
			}
			return ct, nil
		}
	}
}

func oracleParseSequence(dec *xmloracle.Decoder) ([]*Element, error) {
	var seq []*Element
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == XSDNamespace && t.Name.Local == "element" {
				e, err := oracleParseElement(dec, t)
				if err != nil {
					return nil, err
				}
				seq = append(seq, e)
				continue
			}
			return nil, oracleErrf(dec, "unsupported sequence child <%s>", t.Name.Local)
		case xml.EndElement:
			return seq, nil
		}
	}
}

func oracleParseSimpleContent(dec *xmloracle.Decoder) (*SimpleContent, error) {
	sc := &SimpleContent{}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == XSDNamespace && t.Name.Local == "extension" {
				ext := &Extension{}
				for _, a := range t.Attr {
					if a.Name.Local == "base" {
						ext.Base = a.Value
					}
				}
				if err := oracleParseExtensionBody(dec, ext); err != nil {
					return nil, err
				}
				sc.Extension = ext
				continue
			}
			return nil, oracleErrf(dec, "unsupported simpleContent child <%s>", t.Name.Local)
		case xml.EndElement:
			if sc.Extension == nil {
				return nil, oracleErrf(dec, "simpleContent without extension")
			}
			return sc, nil
		}
	}
}

func oracleParseExtensionBody(dec *xmloracle.Decoder, ext *Extension) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == XSDNamespace && t.Name.Local == "attribute" {
				a, err := oracleParseAttribute(dec, t)
				if err != nil {
					return err
				}
				ext.Attributes = append(ext.Attributes, a)
				continue
			}
			return oracleErrf(dec, "unsupported extension child <%s>", t.Name.Local)
		case xml.EndElement:
			return nil
		}
	}
}

func oracleParseSimpleType(dec *xmloracle.Decoder, start xml.StartElement) (*SimpleType, error) {
	st := &SimpleType{}
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			st.Name = a.Value
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != XSDNamespace {
				if err := dec.Skip(); err != nil {
					return nil, err
				}
				continue
			}
			switch t.Name.Local {
			case "restriction":
				r, err := oracleParseRestriction(dec, t)
				if err != nil {
					return nil, err
				}
				st.Restriction = r
			case "annotation":
				ann, err := oracleParseAnnotation(dec)
				if err != nil {
					return nil, err
				}
				st.Annotation = ann
			default:
				return nil, oracleErrf(dec, "unsupported simpleType child <xsd:%s>", t.Name.Local)
			}
		case xml.EndElement:
			if st.Name == "" {
				return nil, oracleErrf(dec, "anonymous simple types are not part of the NDR subset")
			}
			return st, nil
		}
	}
}

func oracleParseRestriction(dec *xmloracle.Decoder, start xml.StartElement) (*Restriction, error) {
	r := &Restriction{}
	for _, a := range start.Attr {
		if a.Name.Local == "base" {
			r.Base = a.Value
		}
	}
	facetValue := func(t xml.StartElement) string {
		for _, a := range t.Attr {
			if a.Name.Local == "value" {
				return a.Value
			}
		}
		return ""
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			v := facetValue(t)
			switch t.Name.Local {
			case "enumeration":
				r.Enumerations = append(r.Enumerations, v)
			case "pattern":
				r.Pattern = v
			case "minLength":
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, oracleErrf(dec, "invalid minLength %q", v)
				}
				r.MinLength = &n
			case "maxLength":
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, oracleErrf(dec, "invalid maxLength %q", v)
				}
				r.MaxLength = &n
			default:
				return nil, oracleErrf(dec, "unsupported restriction facet <%s>", t.Name.Local)
			}
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return r, nil
		}
	}
}

// oracleParseAnnotation reads an annotation, collecting the ccts documentation
// entries (any namespaced child of xsd:documentation).
func oracleParseAnnotation(dec *xmloracle.Decoder) (*Annotation, error) {
	ann := &Annotation{}
	depth := 1
	var currentTag string
	var text strings.Builder
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xsd", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if t.Name.Space != XSDNamespace {
				currentTag = t.Name.Local
				text.Reset()
			}
		case xml.CharData:
			if currentTag != "" {
				text.Write(t)
			}
		case xml.EndElement:
			depth--
			if currentTag != "" && t.Name.Local == currentTag {
				ann.Documentation = append(ann.Documentation, DocEntry{
					Tag:   currentTag,
					Value: strings.TrimSpace(text.String()),
				})
				currentTag = ""
			}
		}
	}
	return ann, nil
}
