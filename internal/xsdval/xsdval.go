// Package xsdval validates XML instance documents against the schema
// sets produced by internal/gen. The paper: "The schemas are then used to
// validate XML messages exchanged during a business process." The
// environment has no external XSD validator, so this package implements
// the subset the NDR generator emits: global root elements, complex types
// with ordered sequences and occurrence ranges, simpleContent extensions
// with required/optional attributes, enumeration/pattern/length facets
// and the XSD built-in simple types.
package xsdval

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"regexp"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan"
	"github.com/go-ccts/ccts/internal/xsd"
)

// xsiNamespace is the XML Schema instance namespace; its attributes
// (xsi:schemaLocation etc.) are ignored during validation.
const xsiNamespace = "http://www.w3.org/2001/XMLSchema-instance"

// SchemaSet indexes a group of schemas by target namespace and resolves
// cross-schema type references.
type SchemaSet struct {
	byNamespace map[string]*xsd.Schema
	// index is the resolve-phase model index the schemas were generated
	// from, when the caller attached one with WithIndex; it lets
	// model-level lookups (SchemaForLibrary, instance generation) reuse
	// resolved names instead of re-deriving them.
	index *core.ModelIndex
}

// NewSchemaSet builds a set from schemas. Duplicate target namespaces
// are an error, and so is a content model that breaks XSD's Element
// Declarations Consistent rule.
func NewSchemaSet(schemas ...*xsd.Schema) (*SchemaSet, error) {
	ss := &SchemaSet{byNamespace: make(map[string]*xsd.Schema, len(schemas))}
	for _, s := range schemas {
		if err := ss.Add(s); err != nil {
			return nil, err
		}
	}
	for _, s := range schemas {
		if err := ss.checkConsistent(s); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// checkConsistent enforces XSD's Element Declarations Consistent rule on
// the sequences of a schema: two element particles with the same
// expanded name must have the same type. Particles or types that do not
// resolve are left to validation, which reports them.
func (ss *SchemaSet) checkConsistent(s *xsd.Schema) error {
	type particle struct {
		pos int
		typ name
	}
	seen := map[name]particle{}
	for _, ct := range s.ComplexTypes {
		clear(seen)
		for i, p := range ct.Sequence {
			el, decl, declSchema, err := ss.particleName(s, p)
			if err != nil || decl.Type == "" {
				continue
			}
			uri, local, err := declSchema.ResolveQName(decl.Type)
			if err != nil {
				continue
			}
			typ := name{uri, local}
			first, dup := seen[el]
			if !dup {
				seen[el] = particle{i + 1, typ}
				continue
			}
			if first.typ != typ {
				return fmt.Errorf("xsdval: complex type %s of %s declares element {%s}%s as particle %d of type {%s}%s and as particle %d of type {%s}%s",
					ct.Name, s.TargetNamespace, el.space, el.local, first.pos, first.typ.space, first.typ.local, i+1, uri, local)
			}
		}
	}
	return nil
}

// Add registers one more schema.
func (ss *SchemaSet) Add(s *xsd.Schema) error {
	if s.TargetNamespace == "" {
		return fmt.Errorf("xsdval: schema without target namespace")
	}
	if _, dup := ss.byNamespace[s.TargetNamespace]; dup {
		return fmt.Errorf("xsdval: duplicate schema for namespace %s", s.TargetNamespace)
	}
	ss.byNamespace[s.TargetNamespace] = s
	return nil
}

// Schema returns the schema for a target namespace.
func (ss *SchemaSet) Schema(namespace string) *xsd.Schema {
	return ss.byNamespace[namespace]
}

// WithIndex attaches the resolve-phase model index the schemas came
// from and returns the set for chaining.
func (ss *SchemaSet) WithIndex(ix *core.ModelIndex) *SchemaSet {
	ss.index = ix
	return ss
}

// Index returns the attached resolve-phase model index, or nil.
func (ss *SchemaSet) Index() *core.ModelIndex { return ss.index }

// SchemaForLibrary returns the schema generated for a model library,
// resolving its target namespace through the attached index when one is
// present.
func (ss *SchemaSet) SchemaForLibrary(lib *core.Library) *xsd.Schema {
	if lib == nil {
		return nil
	}
	if ss.index != nil {
		return ss.byNamespace[ss.index.Namespace(lib)]
	}
	return ss.byNamespace[lib.BaseURN]
}

// Error is one validation finding, located by element path and input
// offset.
type Error struct {
	// Path is the slash-separated element path, e.g.
	// "/HoardingPermit/CurrentApplication".
	Path    string
	Message string
	// Offset is the byte position of the offending element's start tag
	// in the input, 0 when unknown.
	Offset int64
}

// Error implements the error interface.
func (e Error) Error() string {
	if e.Offset > 0 {
		return fmt.Sprintf("%s (byte %d): %s", e.Path, e.Offset, e.Message)
	}
	return e.Path + ": " + e.Message
}

// Result collects the findings of one validation run.
type Result struct {
	Errors []Error

	// cur is the byte offset of the element currently being validated;
	// findings inherit it so every error points at its nearest
	// enclosing element in the input.
	cur int64
}

// Valid reports whether the document conformed.
func (r *Result) Valid() bool { return len(r.Errors) == 0 }

func (r *Result) errorf(path, format string, args ...any) {
	r.Errors = append(r.Errors, Error{
		Path:    path,
		Message: fmt.Sprintf(format, args...),
		Offset:  r.cur,
	})
}

// at records the element being validated and returns a restore value
// for use with defer.
func (r *Result) at(n *node) int64 {
	prev := r.cur
	r.cur = n.offset
	return prev
}

// Validate parses and validates one XML document against the set. The
// document is read under the default ingestion limits (limits.Default):
// a DOCTYPE or ENTITY declaration, or input past a limit, fails with a
// positioned error matching limits.ErrDTD or limits.ErrLimit. The
// returned error covers only such input, malformed XML and documents
// whose root has no declaration; schema violations land in the Result.
func (ss *SchemaSet) Validate(r io.Reader) (*Result, error) {
	lim := limits.Default()
	data, err := xmlscan.ReadInput(r, lim.MaxInputBytes, "xsdval")
	if err != nil {
		return nil, err
	}
	root, err := parseDoc(xmlscan.New(data, lim, "xsdval"))
	if err != nil {
		return nil, err
	}
	return ss.validateDoc(root)
}

// ValidateString validates a document given as a string.
func (ss *SchemaSet) ValidateString(doc string) (*Result, error) {
	return ss.Validate(strings.NewReader(doc))
}

// validateDoc validates a parsed document from its root.
func (ss *SchemaSet) validateDoc(root *node) (*Result, error) {
	res := &Result{}
	schema := ss.byNamespace[root.name.space]
	if schema == nil {
		return nil, fmt.Errorf("xsdval: no schema for root namespace %q", root.name.space)
	}
	decl := schema.GlobalElement(root.name.local)
	if decl == nil {
		return nil, fmt.Errorf("xsdval: namespace %q declares no global element %q", root.name.space, root.name.local)
	}
	ss.validateElement(res, "/"+root.name.local, root, schema, decl)
	return res, nil
}

// name is an expanded XML name: a namespace and a local name.
type name struct{ space, local string }

// attr is an attribute of a parsed element.
type attr struct {
	name  name
	value string
}

// node is a parsed XML element.
type node struct {
	name     name
	attrs    []attr // without namespace declarations and xsi attributes
	children []*node
	text     []byte // the element's own character data
	// offset is the byte position right after the start tag.
	offset int64
}

// parseDoc reads a document into its element tree.
func parseDoc(s *xmlscan.Scanner) (*node, error) {
	var root *node
	var stack []*node
	for {
		kind, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			top.text = s.AppendText(top.text)
		}
		if kind == xmlscan.End {
			stack = stack[:len(stack)-1]
			continue
		}
		n := &node{name: name{s.Space(), string(s.Local())}, offset: int64(s.Offset())}
		for i := 0; i < s.NumAttr(); i++ {
			local := s.AttrLocal(i)
			if s.AttrIn(i, "xmlns") || string(local) == "xmlns" || s.AttrIn(i, xsiNamespace) {
				continue
			}
			n.attrs = append(n.attrs, attr{name{s.AttrSpace(i), string(local)}, string(s.AttrValue(i))})
		}
		if len(stack) == 0 {
			if root != nil {
				return nil, fmt.Errorf("xsdval: multiple root elements")
			}
			root = n
		} else {
			parent := stack[len(stack)-1]
			parent.children = append(parent.children, n)
		}
		stack = append(stack, n)
	}
	if root == nil {
		return nil, fmt.Errorf("xsdval: empty document")
	}
	return root, nil
}

// resolveType finds the named type referenced from within schema.
// Builtins return (nil, nil, local).
func (ss *SchemaSet) resolveType(schema *xsd.Schema, ref string) (*xsd.ComplexType, *xsd.SimpleType, string, error) {
	uri, local, err := schema.ResolveQName(ref)
	if err != nil {
		return nil, nil, "", err
	}
	if uri == xsd.XSDNamespace {
		return nil, nil, local, nil
	}
	target := ss.byNamespace[uri]
	if target == nil {
		return nil, nil, "", fmt.Errorf("no schema for namespace %q (type %q)", uri, ref)
	}
	if ct := target.ComplexType(local); ct != nil {
		// Complex types live in their defining schema: remember it for
		// nested resolution by returning through validateComplex's
		// schema argument.
		return ct, nil, "", nil
	}
	if st := target.SimpleType(local); st != nil {
		return nil, st, "", nil
	}
	return nil, nil, "", fmt.Errorf("type %q not found in namespace %q", local, uri)
}

// schemaOfType returns the schema defining the given type reference, for
// nested element resolution.
func (ss *SchemaSet) schemaOfType(schema *xsd.Schema, ref string) *xsd.Schema {
	uri, _, err := schema.ResolveQName(ref)
	if err != nil {
		return schema
	}
	if s := ss.byNamespace[uri]; s != nil {
		return s
	}
	return schema
}

func (ss *SchemaSet) validateElement(res *Result, path string, n *node, schema *xsd.Schema, decl *xsd.Element) {
	prev := res.at(n)
	defer func() { res.cur = prev }()
	ref := decl.Type
	if decl.Ref != "" {
		// Resolve the global element the ref points at.
		uri, local, err := schema.ResolveQName(decl.Ref)
		if err != nil {
			res.errorf(path, "unresolvable ref %q: %v", decl.Ref, err)
			return
		}
		target := ss.byNamespace[uri]
		if target == nil {
			res.errorf(path, "no schema for ref namespace %q", uri)
			return
		}
		global := target.GlobalElement(local)
		if global == nil {
			res.errorf(path, "no global element %q in %q", local, uri)
			return
		}
		ss.validateElement(res, path, n, target, global)
		return
	}
	if ref == "" {
		// Element without a type validates anything.
		return
	}
	ct, st, builtin, err := ss.resolveType(schema, ref)
	switch {
	case err != nil:
		res.errorf(path, "%v", err)
	case ct != nil:
		ss.validateComplex(res, path, n, ss.schemaOfType(schema, ref), ct)
	case st != nil:
		ss.validateSimpleNode(res, path, n, ss.schemaOfType(schema, ref), st)
	default:
		ss.validateBuiltinNode(res, path, n, builtin)
	}
}

func (ss *SchemaSet) validateComplex(res *Result, path string, n *node, schema *xsd.Schema, ct *xsd.ComplexType) {
	if ct.SimpleContent != nil && ct.SimpleContent.Extension != nil {
		ss.validateSimpleContent(res, path, n, schema, ct.SimpleContent.Extension)
		return
	}
	// Sequence content: no non-whitespace text, no attributes beyond
	// xsi/xmlns.
	if len(bytes.TrimSpace(n.text)) > 0 {
		res.errorf(path, "unexpected text content in element of type %s", ct.Name)
	}
	for _, a := range n.attrs {
		res.errorf(path, "unexpected attribute %q on element of type %s", a.name.local, ct.Name)
	}
	ss.validateSequence(res, path, n, schema, ct)
}

// particleName returns the expected instance name and namespace of a
// sequence particle.
func (ss *SchemaSet) particleName(schema *xsd.Schema, p *xsd.Element) (name, *xsd.Element, *xsd.Schema, error) {
	if p.Ref == "" {
		return name{schema.TargetNamespace, p.Name}, p, schema, nil
	}
	uri, local, err := schema.ResolveQName(p.Ref)
	if err != nil {
		return name{}, nil, nil, err
	}
	target := ss.byNamespace[uri]
	if target == nil {
		return name{}, nil, nil, fmt.Errorf("no schema for ref namespace %q", uri)
	}
	global := target.GlobalElement(local)
	if global == nil {
		return name{}, nil, nil, fmt.Errorf("no global element %q in %q", local, uri)
	}
	return name{uri, local}, global, target, nil
}

func (ss *SchemaSet) validateSequence(res *Result, path string, n *node, schema *xsd.Schema, ct *xsd.ComplexType) {
	childIdx := 0
	for _, particle := range ct.Sequence {
		want, decl, declSchema, err := ss.particleName(schema, particle)
		if err != nil {
			res.errorf(path, "%v", err)
			continue
		}
		count := 0
		for childIdx < len(n.children) && n.children[childIdx].name == want {
			child := n.children[childIdx]
			ss.validateElement(res, path+"/"+child.name.local, child, declSchema, decl)
			childIdx++
			count++
		}
		if !particle.Occurs.Contains(count) {
			res.errorf(path, "element %q occurs %d time(s), allowed %s", want.local, count, particle.Occurs)
		}
	}
	for ; childIdx < len(n.children); childIdx++ {
		child := n.children[childIdx]
		res.errorf(path, "unexpected element %q (namespace %q)", child.name.local, child.name.space)
	}
}

func (ss *SchemaSet) validateSimpleContent(res *Result, path string, n *node, schema *xsd.Schema, ext *xsd.Extension) {
	if len(n.children) > 0 {
		res.errorf(path, "unexpected child elements in simple-content element")
	}
	// Text against the base type.
	ss.validateSimpleValue(res, path, string(n.text), schema, ext.Base)

	// Attributes: declared ones validate; required ones must be present;
	// undeclared ones are errors.
	seen := map[string]bool{}
	for _, a := range n.attrs {
		var decl *xsd.Attribute
		for _, d := range ext.Attributes {
			if d.Name == a.name.local && a.name.space == "" {
				decl = d
				break
			}
		}
		if decl == nil {
			res.errorf(path, "undeclared attribute %q", a.name.local)
			continue
		}
		seen[decl.Name] = true
		ss.validateSimpleValue(res, path+"/@"+decl.Name, a.value, schema, decl.Type)
	}
	for _, d := range ext.Attributes {
		if d.Use == "required" && !seen[d.Name] {
			res.errorf(path, "missing required attribute %q", d.Name)
		}
	}
}

func (ss *SchemaSet) validateSimpleNode(res *Result, path string, n *node, schema *xsd.Schema, st *xsd.SimpleType) {
	if len(n.children) > 0 {
		res.errorf(path, "unexpected child elements in simple-type element")
	}
	if len(n.attrs) > 0 {
		res.errorf(res.attrPath(path, n), "unexpected attributes on simple-type element")
	}
	ss.validateSimpleType(res, path, string(n.text), schema, st)
}

func (r *Result) attrPath(path string, n *node) string {
	if len(n.attrs) > 0 {
		return path + "/@" + n.attrs[0].name.local
	}
	return path
}

func (ss *SchemaSet) validateBuiltinNode(res *Result, path string, n *node, builtin string) {
	if len(n.children) > 0 {
		res.errorf(path, "unexpected child elements in %s element", builtin)
	}
	validateBuiltin(res, path, string(n.text), builtin)
}

// validateSimpleValue validates a text value against a type reference
// (builtin, simple type or — illegal here — complex type).
func (ss *SchemaSet) validateSimpleValue(res *Result, path, value string, schema *xsd.Schema, ref string) {
	ct, st, builtin, err := ss.resolveType(schema, ref)
	switch {
	case err != nil:
		res.errorf(path, "%v", err)
	case ct != nil:
		// Extension base may itself be a simpleContent complex type; its
		// own base carries the value constraint.
		if ct.SimpleContent != nil && ct.SimpleContent.Extension != nil {
			ss.validateSimpleValue(res, path, value, ss.schemaOfType(schema, ref), ct.SimpleContent.Extension.Base)
			return
		}
		res.errorf(path, "type %q is not a simple type", ref)
	case st != nil:
		ss.validateSimpleType(res, path, value, ss.schemaOfType(schema, ref), st)
	default:
		validateBuiltin(res, path, value, builtin)
	}
}

func (ss *SchemaSet) validateSimpleType(res *Result, path, value string, schema *xsd.Schema, st *xsd.SimpleType) {
	r := st.Restriction
	if r == nil {
		return
	}
	collapsed := collapse(value)
	if len(r.Enumerations) > 0 {
		ok := false
		for _, e := range r.Enumerations {
			if collapsed == e {
				ok = true
				break
			}
		}
		if !ok {
			res.errorf(path, "value %q is not one of the enumerated values %v of %s", collapsed, r.Enumerations, st.Name)
			return
		}
	}
	if r.Pattern != "" {
		re, err := regexp.Compile("^(?:" + r.Pattern + ")$")
		if err != nil {
			res.errorf(path, "invalid pattern facet %q: %v", r.Pattern, err)
		} else if !re.MatchString(collapsed) {
			res.errorf(path, "value %q does not match pattern %q", collapsed, r.Pattern)
		}
	}
	if r.MinLength != nil && len(collapsed) < *r.MinLength {
		res.errorf(path, "value %q shorter than minLength %d", collapsed, *r.MinLength)
	}
	if r.MaxLength != nil && len(collapsed) > *r.MaxLength {
		res.errorf(path, "value %q longer than maxLength %d", collapsed, *r.MaxLength)
	}
	if r.Base != "" {
		ss.validateSimpleValue(res, path, value, schema, r.Base)
	}
}

// collapse applies XSD whitespace collapse.
func collapse(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

var (
	integerRe  = regexp.MustCompile(`^[+-]?[0-9]+$`)
	decimalRe  = regexp.MustCompile(`^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)$`)
	floatRe    = regexp.MustCompile(`^([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|NaN|INF|-INF)$`)
	dateRe     = regexp.MustCompile(`^-?[0-9]{4,}-[0-9]{2}-[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})?$`)
	timeRe     = regexp.MustCompile(`^[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?(Z|[+-][0-9]{2}:[0-9]{2})?$`)
	dateTimeRe = regexp.MustCompile(`^-?[0-9]{4,}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?(Z|[+-][0-9]{2}:[0-9]{2})?$`)
	durationRe = regexp.MustCompile(`^-?P([0-9]+Y)?([0-9]+M)?([0-9]+D)?(T([0-9]+H)?([0-9]+M)?([0-9]+(\.[0-9]+)?S)?)?$`)
)

// validateBuiltin validates a value against an XSD built-in simple type.
// Unknown builtins are accepted (the generator only emits the known set;
// hand-written schemas may use more).
func validateBuiltin(res *Result, path, value, builtin string) {
	v := collapse(value)
	fail := func(kind string) {
		res.errorf(path, "value %q is not a valid xsd:%s", v, kind)
	}
	switch builtin {
	case "string", "token", "normalizedString", "anyURI", "NCName", "":
		// Any text.
	case "boolean":
		if v != "true" && v != "false" && v != "0" && v != "1" {
			fail("boolean")
		}
	case "integer", "int", "long", "short", "nonNegativeInteger", "positiveInteger":
		if !integerRe.MatchString(v) {
			fail(builtin)
		}
	case "decimal":
		if !decimalRe.MatchString(v) {
			fail("decimal")
		}
	case "double", "float":
		if !floatRe.MatchString(v) {
			fail(builtin)
		}
	case "date":
		if !dateRe.MatchString(v) {
			fail("date")
		}
	case "time":
		if !timeRe.MatchString(v) {
			fail("time")
		}
	case "dateTime":
		if !dateTimeRe.MatchString(v) {
			fail("dateTime")
		}
	case "duration":
		if v == "" || v == "P" || !durationRe.MatchString(v) {
			fail("duration")
		}
	case "base64Binary":
		if _, err := base64.StdEncoding.DecodeString(strings.ReplaceAll(v, " ", "")); err != nil {
			fail("base64Binary")
		}
	}
}
