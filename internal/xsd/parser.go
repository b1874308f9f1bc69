package xsd

import (
	"bytes"
	"io"
	"strconv"
	"strings"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan"
)

// Parse reads an XSD document into the object model, enforcing the
// default ingestion limits. It understands the subset the writer emits
// (plus whitespace/comment tolerance): imports, global elements,
// complex types with sequences or simpleContent extensions, simple
// types with restriction facets, and CCTS annotations. Limit violations
// and parse errors carry the line:col position at which they occurred.
func Parse(r io.Reader) (*Schema, error) {
	return parse(r, limits.Default())
}

// ParseString parses a schema from a string.
func ParseString(doc string) (*Schema, error) {
	return Parse(strings.NewReader(doc))
}

// parse reads at most lim.MaxInputBytes bytes of a schema from r and
// parses them under lim.
func parse(r io.Reader, lim limits.Limits) (*Schema, error) {
	data, err := xmlscan.ReadInput(r, lim.MaxInputBytes, "xsd")
	if err != nil {
		return nil, err
	}
	s := xmlscan.New(data, lim, "xsd")
	if _, err := s.Next(); err != nil {
		if err == io.EOF {
			return nil, s.Errorf("no schema element found")
		}
		return nil, err
	}
	if !s.In(XSDNamespace) || !s.IsLocal("schema") {
		return nil, s.Errorf("root element is {%s}%s, want {%s}schema", s.Space(), s.Local(), XSDNamespace)
	}
	return parseSchema(s)
}

// attr returns the decoded value of the current element's last
// attribute with the given local name, whatever its namespace, or "".
// The last one wins, as it would if each were assigned in turn.
func attr(s *xmlscan.Scanner, local string) string {
	for i := s.NumAttr() - 1; i >= 0; i-- {
		if string(s.AttrLocal(i)) == local {
			return string(s.AttrValue(i))
		}
	}
	return ""
}

func parseSchema(s *xmlscan.Scanner) (*Schema, error) {
	sch := &Schema{}
	for i := 0; i < s.NumAttr(); i++ {
		switch local, value := s.AttrLocal(i), s.AttrValue(i); {
		case s.AttrIn(i, "xmlns"):
			// The writer re-adds xmlns:xsd itself; keep every other
			// prefixed declaration.
			if !(string(local) == "xsd" && string(value) == XSDNamespace) {
				sch.Namespaces = append(sch.Namespaces, Namespace{Prefix: string(local), URI: string(value)})
			}
		case string(local) == "xmlns" && s.AttrIn(i, ""):
			sch.Namespaces = append(sch.Namespaces, Namespace{Prefix: "", URI: string(value)})
		case string(local) == "targetNamespace":
			sch.TargetNamespace = string(value)
		case string(local) == "elementFormDefault":
			sch.ElementFormDefault = string(value)
		case string(local) == "attributeFormDefault":
			sch.AttributeFormDefault = string(value)
		case string(local) == "version":
			sch.Version = string(value)
		}
	}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			return sch, nil
		}
		if !s.In(XSDNamespace) {
			if err := s.Skip(); err != nil {
				return nil, err
			}
			continue
		}
		switch string(s.Local()) {
		case "import":
			sch.Imports = append(sch.Imports, Import{
				Namespace:      attr(s, "namespace"),
				SchemaLocation: attr(s, "schemaLocation"),
			})
			err = s.Skip()
		case "element":
			var e *Element
			if e, err = parseElement(s); err == nil {
				sch.Elements = append(sch.Elements, e)
			}
		case "complexType":
			var ct *ComplexType
			if ct, err = parseComplexType(s); err == nil {
				sch.ComplexTypes = append(sch.ComplexTypes, ct)
			}
		case "simpleType":
			var st *SimpleType
			if st, err = parseSimpleType(s); err == nil {
				sch.SimpleTypes = append(sch.SimpleTypes, st)
			}
		case "annotation":
			err = s.Skip()
		default:
			err = s.Errorf("unsupported schema child <xsd:%s>", s.Local())
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseOccurs reads minOccurs and maxOccurs in document order; the first
// malformed one fails.
func parseOccurs(s *xmlscan.Scanner) (Occurs, error) {
	o := Occurs{Min: 1, Max: 1}
	explicit := false
	for i := 0; i < s.NumAttr(); i++ {
		switch string(s.AttrLocal(i)) {
		case "minOccurs":
			v := string(s.AttrValue(i))
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return o, s.Errorf("invalid minOccurs %q", v)
			}
			o.Min = n
			explicit = true
		case "maxOccurs":
			if v := string(s.AttrValue(i)); v == "unbounded" {
				o.Max = Unbounded
			} else {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return o, s.Errorf("invalid maxOccurs %q", v)
				}
				o.Max = n
			}
			explicit = true
		}
	}
	o.Explicit = explicit
	return o, nil
}

func parseElement(s *xmlscan.Scanner) (*Element, error) {
	e := &Element{}
	var err error
	if e.Occurs, err = parseOccurs(s); err != nil {
		return nil, err
	}
	e.Name, e.Type, e.Ref = attr(s, "name"), attr(s, "type"), attr(s, "ref")
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			if e.Name == "" && e.Ref == "" {
				return nil, s.Errorf("element without name or ref")
			}
			return e, nil
		}
		if !s.In(XSDNamespace) || !s.IsLocal("annotation") {
			return nil, s.Errorf("unsupported element child <%s> (anonymous types are not part of the NDR subset)", s.Local())
		}
		if e.Annotation, err = parseAnnotation(s); err != nil {
			return nil, err
		}
	}
}

func parseAttribute(s *xmlscan.Scanner) (*Attribute, error) {
	a := &Attribute{Name: attr(s, "name"), Type: attr(s, "type"), Use: attr(s, "use")}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case kind == xmlscan.End:
			if a.Name == "" {
				return nil, s.Errorf("attribute without name")
			}
			return a, nil
		case s.In(XSDNamespace) && s.IsLocal("annotation"):
			a.Annotation, err = parseAnnotation(s)
		default:
			err = s.Skip()
		}
		if err != nil {
			return nil, err
		}
	}
}

func parseComplexType(s *xmlscan.Scanner) (*ComplexType, error) {
	ct := &ComplexType{Name: attr(s, "name")}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			if ct.Name == "" {
				return nil, s.Errorf("anonymous complex types are not part of the NDR subset")
			}
			return ct, nil
		}
		if !s.In(XSDNamespace) {
			err = s.Skip()
		} else {
			switch string(s.Local()) {
			case "sequence":
				ct.Sequence, err = parseSequence(s)
			case "simpleContent":
				ct.SimpleContent, err = parseSimpleContent(s)
			case "annotation":
				ct.Annotation, err = parseAnnotation(s)
			default:
				err = s.Errorf("unsupported complexType child <xsd:%s>", s.Local())
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

func parseSequence(s *xmlscan.Scanner) ([]*Element, error) {
	var seq []*Element
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			return seq, nil
		}
		if !s.In(XSDNamespace) || !s.IsLocal("element") {
			return nil, s.Errorf("unsupported sequence child <%s>", s.Local())
		}
		e, err := parseElement(s)
		if err != nil {
			return nil, err
		}
		seq = append(seq, e)
	}
}

func parseSimpleContent(s *xmlscan.Scanner) (*SimpleContent, error) {
	sc := &SimpleContent{}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			if sc.Extension == nil {
				return nil, s.Errorf("simpleContent without extension")
			}
			return sc, nil
		}
		if !s.In(XSDNamespace) || !s.IsLocal("extension") {
			return nil, s.Errorf("unsupported simpleContent child <%s>", s.Local())
		}
		ext := &Extension{Base: attr(s, "base")}
		if err := parseExtensionBody(s, ext); err != nil {
			return nil, err
		}
		sc.Extension = ext
	}
}

func parseExtensionBody(s *xmlscan.Scanner, ext *Extension) error {
	for {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		if kind == xmlscan.End {
			return nil
		}
		if !s.In(XSDNamespace) || !s.IsLocal("attribute") {
			return s.Errorf("unsupported extension child <%s>", s.Local())
		}
		a, err := parseAttribute(s)
		if err != nil {
			return err
		}
		ext.Attributes = append(ext.Attributes, a)
	}
}

func parseSimpleType(s *xmlscan.Scanner) (*SimpleType, error) {
	st := &SimpleType{Name: attr(s, "name")}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			if st.Name == "" {
				return nil, s.Errorf("anonymous simple types are not part of the NDR subset")
			}
			return st, nil
		}
		if !s.In(XSDNamespace) {
			err = s.Skip()
		} else {
			switch string(s.Local()) {
			case "restriction":
				st.Restriction, err = parseRestriction(s)
			case "annotation":
				st.Annotation, err = parseAnnotation(s)
			default:
				err = s.Errorf("unsupported simpleType child <xsd:%s>", s.Local())
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseRestriction reads a restriction's facets, matched by local name
// in any namespace; a facet's value is its first value attribute.
func parseRestriction(s *xmlscan.Scanner) (*Restriction, error) {
	r := &Restriction{Base: attr(s, "base")}
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			return r, nil
		}
		v := string(s.Attr("value"))
		switch string(s.Local()) {
		case "enumeration":
			r.Enumerations = append(r.Enumerations, v)
		case "pattern":
			r.Pattern = v
		case "minLength", "maxLength":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, s.Errorf("invalid %s %q", s.Local(), v)
			}
			if s.IsLocal("minLength") {
				r.MinLength = &n
			} else {
				r.MaxLength = &n
			}
		default:
			return nil, s.Errorf("unsupported restriction facet <%s>", s.Local())
		}
		if err := s.Skip(); err != nil {
			return nil, err
		}
	}
}

// parseAnnotation reads an annotation, collecting the ccts documentation
// entries (any namespaced child of xsd:documentation). An entry's value
// is its text with surrounding space trimmed; the text of an entry
// nested in another belongs to the inner one only.
func parseAnnotation(s *xmlscan.Scanner) (*Annotation, error) {
	ann := &Annotation{}
	depth := 1
	var currentTag string
	var text []byte
	for depth > 0 {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if currentTag != "" {
			text = s.AppendText(text)
		}
		switch kind {
		case xmlscan.Start:
			depth++
			if !s.In(XSDNamespace) {
				currentTag = string(s.Local())
				text = text[:0]
			}
		case xmlscan.End:
			depth--
			if currentTag != "" && s.IsLocal(currentTag) {
				ann.Documentation = append(ann.Documentation, DocEntry{
					Tag:   currentTag,
					Value: string(bytes.TrimSpace(text)),
				})
				currentTag = ""
			}
		}
	}
	return ann, nil
}
