package xmi

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmlscan"
)

// ImportOptions steer the hardened importer.
type ImportOptions struct {
	// Limits bounds the resources the document may consume; the zero
	// value disables all limits (Import itself applies limits.Default).
	Limits limits.Limits
	// Lenient switches the importer from fail-fast to best-effort:
	// model-level defects (dangling ID references, malformed tagged
	// values or multiplicities, unsupported elements) are collected as
	// Diagnostics and the partial model is returned. Stream-level
	// failures (XML syntax, limit violations, I/O) still abort.
	Lenient bool
	// StereotypeKnown, when set, is consulted for every non-empty
	// stereotype encountered; unknown stereotypes become Diagnostics in
	// lenient mode (and are ignored otherwise). The element argument
	// names the UML element kind: "package", "class", "enumeration",
	// "attribute", "association", "dependency".
	StereotypeKnown func(element, stereotype string) bool
}

// Diagnostic is one best-effort import finding, positioned at the
// 1-based line:col where the defect appeared in the document.
type Diagnostic struct {
	// Rule is a stable identifier (XMI-REF, XMI-STEREO, XMI-TAG,
	// XMI-MULT, XMI-AGG, XMI-ELEM, XMI-TYPE).
	Rule string
	// Element names the model element the defect is attached to.
	Element string
	// Message describes the defect.
	Message string
	// Line and Col locate the defect in the XMI document.
	Line, Col int
}

// String renders the diagnostic for reports.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d [%s] %s: %s", d.Line, d.Col, d.Rule, d.Element, d.Message)
}

// Import reads an XMI document produced by Export back into a UML model,
// enforcing the default ingestion limits. References (association ends,
// dependency clients/suppliers) may point forward in the document; they
// are resolved in a second pass.
func Import(r io.Reader) (*uml.Model, error) {
	m, _, err := ImportWithOptions(r, ImportOptions{Limits: limits.Default()})
	return m, err
}

// ImportString reads an XMI document from a string.
func ImportString(doc string) (*uml.Model, error) {
	return Import(strings.NewReader(doc))
}

// ImportWithOptions reads at most Limits.MaxInputBytes bytes of an XMI
// document from r and imports them with ImportBytes. A read error fails
// the import, wherever in the input it occurs.
func ImportWithOptions(r io.Reader, opts ImportOptions) (*uml.Model, []Diagnostic, error) {
	data, err := xmlscan.ReadInput(r, opts.Limits.MaxInputBytes, "xmi")
	if err != nil {
		return nil, nil, err
	}
	return ImportBytes(data, opts)
}

// ImportBytes reads an XMI document held in memory. In lenient mode the
// returned model may be partial and the diagnostics describe every
// defect that was skipped over; in strict mode diagnostics are always
// nil and the first defect aborts with a positional error. Only the
// first Limits.MaxInputBytes bytes are read: a document that needs more
// fails with that violation. The model shares no memory with data.
func ImportBytes(data []byte, opts ImportOptions) (*uml.Model, []Diagnostic, error) {
	s := xmlscan.New(data, opts.Limits, "xmi")
	p := &importer{
		s: s,
		// Exports spend about 130 bytes per registered element, so the
		// table is sized from the input read to save its regrowth; an
		// input without ids wastes a table a fraction of its own size.
		byID:            make(map[string]any, s.Size()/128),
		interned:        make(map[string]string, 64),
		lenient:         opts.Lenient,
		stereotypeKnown: opts.StereotypeKnown,
	}
	model, err := p.document()
	if err != nil {
		return nil, p.diags, err
	}
	if err := p.resolve(); err != nil {
		return nil, p.diags, err
	}
	return model, p.diags, nil
}

// pendingAssociation defers end resolution until all classes are known.
// The ids are slices of the input, which outlives the import.
type pendingAssociation struct {
	assoc          *uml.Association
	owner          *uml.Package
	source, target []byte
	line, col      int
}

type pendingDependency struct {
	dep              *uml.Dependency
	owner            *uml.Package
	client, supplier []byte
	line, col        int
}

type importer struct {
	s            *xmlscan.Scanner
	byID         map[string]any
	associations []pendingAssociation
	dependencies []pendingDependency
	// interned holds this import's stereotypes, tag names, type names
	// and aggregation kinds, which recur on most elements.
	interned map[string]string

	lenient         bool
	stereotypeKnown func(element, stereotype string) bool
	diags           []Diagnostic
}

// label names the model element a diagnostic is attached to. It is
// rendered only when a diagnostic is recorded.
type label struct {
	kind        labelKind
	owner, name string
	qualified   interface{ QualifiedName() string }
}

type labelKind uint8

const (
	labelName        labelKind = iota // name
	labelMember                       // owner.name
	labelAttribute                    // "attribute owner.name"
	labelAssociation                  // "association name"
	labelQualified                    // qualified.QualifiedName()
)

func named(name string) label { return label{name: name} }

func qualified(el interface{ QualifiedName() string }) label {
	return label{kind: labelQualified, qualified: el}
}

func (l label) String() string {
	switch l.kind {
	case labelMember:
		return l.owner + "." + l.name
	case labelAttribute:
		return "attribute " + l.owner + "." + l.name
	case labelAssociation:
		return "association " + l.name
	case labelQualified:
		return l.qualified.QualifiedName()
	}
	return l.name
}

// failf aborts in strict mode and records a diagnostic in lenient mode
// (returning nil so the caller can recover and continue).
func (p *importer) failf(rule string, element label, format string, args ...any) error {
	if !p.lenient {
		return p.s.Errorf(format, args...)
	}
	line, col := p.s.Pos()
	p.diags = append(p.diags, Diagnostic{
		Rule: rule, Element: element.String(),
		Message: fmt.Sprintf(format, args...),
		Line:    line, Col: col,
	})
	return nil
}

// checkStereotype records a diagnostic for stereotypes the configured
// profile checker does not know.
func (p *importer) checkStereotype(element string, name label, st string) {
	if st == "" || p.stereotypeKnown == nil || p.stereotypeKnown(element, st) {
		return
	}
	line, col := p.s.Pos()
	p.diags = append(p.diags, Diagnostic{
		Rule: "XMI-STEREO", Element: name.String(),
		Message: fmt.Sprintf("unknown %s stereotype %q", element, st),
		Line:    line, Col: col,
	})
}

// register records an element under its xmi:id so association ends and
// dependency participants can reference it. An empty id registers
// nothing, and a repeated id keeps the first element: the repeat is a
// defect, reported at the element that repeats it.
func (p *importer) register(id []byte, element label, el any) error {
	if len(id) == 0 {
		return nil
	}
	if _, dup := p.byID[string(id)]; dup {
		return p.failf("XMI-REF", element, "duplicate xmi:id %q", id)
	}
	p.byID[string(id)] = el
	return nil
}

// str returns the current element's attribute as a string of its own.
func (p *importer) str(local string) string { return string(p.s.Attr(local)) }

// intern returns the current element's attribute through the import's
// intern table.
func (p *importer) intern(local string) string {
	b := p.s.Attr(local)
	if len(b) == 0 {
		return ""
	}
	if v, ok := p.interned[string(b)]; ok {
		return v
	}
	v := string(b)
	p.interned[v] = v
	return v
}

// parseMult reads the lower/upper multiplicity attributes; in lenient
// mode a malformed range is diagnosed and defaults to 1..1.
func (p *importer) parseMult(element label) (uml.Multiplicity, error) {
	lower, upper := p.s.Attr("lower"), p.s.Attr("upper")
	if len(lower) == 0 && len(upper) == 0 {
		return uml.One, nil
	}
	if m, ok := quickMult(lower, upper); ok {
		return m, nil
	}
	lo, hi := string(lower), string(upper)
	m, err := uml.ParseMultiplicity(lo + ".." + hi)
	if err != nil {
		if ferr := p.failf("XMI-MULT", element, "malformed multiplicity %q..%q: %v", lo, hi, err); ferr != nil {
			return uml.One, ferr
		}
		return uml.One, nil
	}
	return m, nil
}

// quickMult parses the bounds exports write (short digit runs, and "*"
// as the upper bound) without building the "lower..upper" string, and
// leaves everything else, errors included, to uml.ParseMultiplicity.
func quickMult(lower, upper []byte) (uml.Multiplicity, bool) {
	lo, ok := quickBound(lower)
	if !ok {
		return uml.Multiplicity{}, false
	}
	hi := uml.Unbounded
	if string(upper) != "*" {
		if hi, ok = quickBound(upper); !ok {
			return uml.Multiplicity{}, false
		}
	}
	m := uml.Multiplicity{Lower: lo, Upper: hi}
	return m, m.Valid()
}

func quickBound(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// taggedValue applies one taggedValue element; a missing tag name is a
// malformed tagged value.
func (p *importer) taggedValue(element label, tags *uml.TaggedValues) error {
	tag := p.intern("tag")
	if tag == "" {
		if err := p.failf("XMI-TAG", element, "taggedValue without tag name"); err != nil {
			return err
		}
		return p.s.Skip()
	}
	tags.Set(tag, p.str("value"))
	return p.s.Skip()
}

// unexpected handles a child element the importer does not read:
// diagnosed (or fatal in strict mode) and skipped.
func (p *importer) unexpected(element label, format string) error {
	if err := p.failf("XMI-ELEM", element, format, p.s.Local()); err != nil {
		return err
	}
	return p.s.Skip()
}

func (p *importer) document() (*uml.Model, error) {
	s := p.s
	for {
		kind, err := s.Next()
		if err == io.EOF {
			return nil, errors.New("xmi: no uml:Model element found")
		}
		if err != nil {
			return nil, err
		}
		if kind != xmlscan.Start {
			continue
		}
		switch {
		case s.IsLocal("XMI"):
			continue // descend
		case s.IsLocal("Model") && s.In(UMLNamespace):
			return p.model()
		default:
			if err := p.unexpected(named(string(s.Local())), "unexpected element <%s>"); err != nil {
				return nil, err
			}
		}
	}
}

func (p *importer) model() (*uml.Model, error) {
	s := p.s
	m := uml.NewModel(p.str("name"))
	for {
		kind, err := s.Next()
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.End {
			return m, nil
		}
		switch {
		case s.IsLocal("taggedValue"):
			if err := p.taggedValue(named(m.Name), &m.Tags); err != nil {
				return nil, err
			}
		case s.IsLocal("packagedElement"):
			if typ := xmiType(s); string(typ) != "uml:Package" {
				if err := p.failf("XMI-TYPE", named(p.str("name")), "model children must be packages, got %q", typ); err != nil {
					return nil, err
				}
				if err := s.Skip(); err != nil {
					return nil, err
				}
				continue
			}
			name, st := p.str("name"), p.intern("stereotype")
			p.checkStereotype("package", named(name), st)
			pkg := m.AddPackage(name, st)
			if err := p.register(s.Attr("id"), named(name), pkg); err != nil {
				return nil, err
			}
			if err := p.packageBody(pkg); err != nil {
				return nil, err
			}
		default:
			if err := p.unexpected(named(m.Name), "unexpected model child <%s>"); err != nil {
				return nil, err
			}
		}
	}
}

func (p *importer) packageBody(pkg *uml.Package) error {
	s := p.s
	for {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		if kind == xmlscan.End {
			return nil
		}
		switch {
		case s.IsLocal("taggedValue"):
			err = p.taggedValue(qualified(pkg), &pkg.Tags)
		case s.IsLocal("packagedElement"):
			err = p.packagedElement(pkg)
		default:
			err = p.unexpected(qualified(pkg), "unexpected package child <%s>")
		}
		if err != nil {
			return err
		}
	}
}

func (p *importer) packagedElement(pkg *uml.Package) error {
	s := p.s
	id := s.Attr("id")
	name := p.str("name")
	switch typ := xmiType(s); string(typ) {
	case "uml:Package":
		st := p.intern("stereotype")
		p.checkStereotype("package", named(name), st)
		child := pkg.AddPackage(name, st)
		if err := p.register(id, named(name), child); err != nil {
			return err
		}
		return p.packageBody(child)
	case "uml:Class":
		st := p.intern("stereotype")
		p.checkStereotype("class", named(name), st)
		c := pkg.AddClass(name, st)
		if err := p.register(id, named(name), c); err != nil {
			return err
		}
		return p.classBody(c)
	case "uml:Enumeration":
		st := p.intern("stereotype")
		p.checkStereotype("enumeration", named(name), st)
		e := pkg.AddEnumeration(name, st)
		if err := p.register(id, named(name), e); err != nil {
			return err
		}
		return p.enumBody(e)
	case "uml:Association":
		role := p.str("role")
		el := label{kind: labelAssociation, name: role}
		st := p.intern("stereotype")
		p.checkStereotype("association", named(role), st)
		mult, err := p.parseMult(el)
		if err != nil {
			return err
		}
		kind, err := uml.ParseAggregationKind(p.intern("aggregation"))
		if err != nil {
			if ferr := p.failf("XMI-AGG", el, "%v", err); ferr != nil {
				return ferr
			}
			kind = uml.AggregationNone
		}
		a := &uml.Association{
			Stereotype: st,
			TargetRole: role,
			TargetMult: mult,
			Kind:       kind,
		}
		pkg.AddAssociation(a)
		line, col := s.Pos()
		p.associations = append(p.associations, pendingAssociation{
			assoc: a, owner: pkg, source: s.Attr("source"), target: s.Attr("target"),
			line: line, col: col,
		})
		return p.tagsOnly(&a.Tags, el)
	case "uml:Dependency":
		st := p.intern("stereotype")
		p.checkStereotype("dependency", named("dependency"), st)
		d := pkg.AddDependency(st, nil, nil)
		line, col := s.Pos()
		p.dependencies = append(p.dependencies, pendingDependency{
			dep: d, owner: pkg, client: s.Attr("client"), supplier: s.Attr("supplier"),
			line: line, col: col,
		})
		return s.Skip()
	default:
		if err := p.failf("XMI-TYPE", named(name), "unsupported packagedElement type %q", typ); err != nil {
			return err
		}
		return s.Skip()
	}
}

func (p *importer) tagsOnly(tags *uml.TaggedValues, element label) error {
	s := p.s
	for {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		if kind == xmlscan.End {
			return nil
		}
		if s.IsLocal("taggedValue") {
			err = p.taggedValue(element, tags)
		} else {
			err = p.unexpected(element, "unexpected element <%s>")
		}
		if err != nil {
			return err
		}
	}
}

func (p *importer) classBody(c *uml.Class) error {
	s := p.s
	for {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		if kind == xmlscan.End {
			return nil
		}
		switch {
		case s.IsLocal("taggedValue"):
			err = p.taggedValue(qualified(c), &c.Tags)
		case s.IsLocal("ownedAttribute"):
			err = p.ownedAttribute(c)
		default:
			err = p.unexpected(qualified(c), "unexpected class child <%s>")
		}
		if err != nil {
			return err
		}
	}
}

func (p *importer) ownedAttribute(c *uml.Class) error {
	s := p.s
	aname := p.str("name")
	el := label{kind: labelAttribute, owner: c.Name, name: aname}
	st := p.intern("stereotype")
	p.checkStereotype("attribute", label{kind: labelMember, owner: c.Name, name: aname}, st)
	mult, err := p.parseMult(el)
	if err != nil {
		return err
	}
	a := c.AddAttribute(aname, st, p.intern("type"), mult)
	if err := p.register(s.Attr("id"), el, a); err != nil {
		return err
	}
	return p.tagsOnly(&a.Tags, el)
}

func (p *importer) enumBody(e *uml.Enumeration) error {
	s := p.s
	for {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		if kind == xmlscan.End {
			return nil
		}
		switch {
		case s.IsLocal("taggedValue"):
			err = p.taggedValue(qualified(e), &e.Tags)
		case s.IsLocal("ownedLiteral"):
			e.AddLiteral(p.str("name"), p.str("value"))
			err = s.Skip()
		default:
			err = p.unexpected(qualified(e), "unexpected enumeration child <%s>")
		}
		if err != nil {
			return err
		}
	}
}

// xmiType returns the value of the current element's first type
// attribute in the XMI namespace (or under an unbound xmi prefix), else
// of its first type attribute of any namespace.
func xmiType(s *xmlscan.Scanner) []byte {
	first := -1
	for k := 0; k < s.NumAttr(); k++ {
		if string(s.AttrLocal(k)) != "type" {
			continue
		}
		if s.AttrIn(k, XMINamespace) || s.AttrIn(k, "xmi") {
			return s.AttrValue(k)
		}
		if first < 0 {
			first = k
		}
	}
	if first < 0 {
		return nil
	}
	return s.AttrValue(first)
}

// posErrf builds a strict-mode resolution error positioned at the
// element that held the dangling reference.
func posErrf(line, col int, format string, args ...any) error {
	return &limits.PosError{Op: "xmi", Line: line, Col: col, Err: fmt.Errorf(format, args...)}
}

// resolve wires association ends and dependency participants. In
// lenient mode, associations and dependencies with dangling or
// mistyped references are diagnosed and dropped from their owning
// package instead of aborting the import.
func (p *importer) resolve() error {
	classByID := func(id []byte, context string) (*uml.Class, error) {
		el, ok := p.byID[string(id)]
		if !ok {
			return nil, fmt.Errorf("xmi: %s references unknown id %q", context, id)
		}
		c, ok := el.(*uml.Class)
		if !ok {
			return nil, fmt.Errorf("xmi: %s id %q is not a class", context, id)
		}
		return c, nil
	}
	classifierByID := func(id []byte, context string) (uml.Classifier, error) {
		el, ok := p.byID[string(id)]
		if !ok {
			return nil, fmt.Errorf("xmi: %s references unknown id %q", context, id)
		}
		c, ok := el.(uml.Classifier)
		if !ok {
			return nil, fmt.Errorf("xmi: %s id %q is not a classifier", context, id)
		}
		return c, nil
	}
	for _, pa := range p.associations {
		src, err := classByID(pa.source, "association source")
		if err == nil {
			var dst *uml.Class
			dst, err = classByID(pa.target, "association target")
			if err == nil {
				pa.assoc.Source, pa.assoc.Target = src, dst
				continue
			}
		}
		if !p.lenient {
			return posErrf(pa.line, pa.col, "%v", err)
		}
		p.diags = append(p.diags, Diagnostic{
			Rule: "XMI-REF", Element: "association " + pa.assoc.TargetRole,
			Message: strings.TrimPrefix(err.Error(), "xmi: "),
			Line:    pa.line, Col: pa.col,
		})
		dropAssociation(pa.owner, pa.assoc)
	}
	for _, pd := range p.dependencies {
		client, err := classifierByID(pd.client, "dependency client")
		if err == nil {
			var supplier uml.Classifier
			supplier, err = classifierByID(pd.supplier, "dependency supplier")
			if err == nil {
				pd.dep.Client, pd.dep.Supplier = client, supplier
				continue
			}
		}
		if !p.lenient {
			return posErrf(pd.line, pd.col, "%v", err)
		}
		p.diags = append(p.diags, Diagnostic{
			Rule: "XMI-REF", Element: "dependency " + pd.dep.Stereotype,
			Message: strings.TrimPrefix(err.Error(), "xmi: "),
			Line:    pd.line, Col: pd.col,
		})
		dropDependency(pd.owner, pd.dep)
	}
	return nil
}

func dropAssociation(pkg *uml.Package, a *uml.Association) {
	for i, x := range pkg.Associations {
		if x == a {
			pkg.Associations = append(pkg.Associations[:i], pkg.Associations[i+1:]...)
			return
		}
	}
}

func dropDependency(pkg *uml.Package, d *uml.Dependency) {
	for i, x := range pkg.Dependencies {
		if x == d {
			pkg.Dependencies = append(pkg.Dependencies[:i], pkg.Dependencies[i+1:]...)
			return
		}
	}
}
