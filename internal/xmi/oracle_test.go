package xmi_test

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/uml"
	. "github.com/go-ccts/ccts/internal/xmi"
	"github.com/go-ccts/ccts/internal/xmlscan/xmloracle"
)

// This file is the XMI reader that ImportBytes replaced, on
// encoding/xml behind xmloracle.Decoder, kept unchanged as the
// differential oracle of the byte scanner (differential_test.go). Only
// its entry point is renamed and the declarations it shares with the
// package are dropped.

// The rule by which the scanner and the oracle reject an input alike,
// shared with the XSD and instance readers' differential tests.
var (
	outcome  = xmloracle.Outcome
	errPos   = xmloracle.ErrPos
	earlyCut = xmloracle.EarlyCut
)

// oracleImportWithOptions reads an XMI document under explicit options.
// In lenient mode the returned model may be partial and the diagnostics
// describe every defect that was skipped over; in strict mode
// diagnostics are always nil and the first defect aborts with a
// positional error.
func oracleImportWithOptions(r io.Reader, opts ImportOptions) (*uml.Model, []Diagnostic, error) {
	dec := xmloracle.NewDecoder(r, opts.Limits)
	p := &importer{
		byID:            map[string]any{},
		dec:             dec,
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
type pendingAssociation struct {
	assoc          *uml.Association
	owner          *uml.Package
	source, target string
	line, col      int
}

type pendingDependency struct {
	dep              *uml.Dependency
	owner            *uml.Package
	client, supplier string
	line, col        int
}

type importer struct {
	byID         map[string]any
	associations []pendingAssociation
	dependencies []pendingDependency

	dec             *xmloracle.Decoder
	lenient         bool
	stereotypeKnown func(element, stereotype string) bool
	diags           []Diagnostic
}

// failf aborts in strict mode and records a diagnostic in lenient mode
// (returning nil so the caller can recover and continue).
func (p *importer) failf(rule, element, format string, args ...any) error {
	if !p.lenient {
		return p.dec.Wrap("xmi", fmt.Errorf(format, args...))
	}
	line, col := p.dec.Pos()
	p.diags = append(p.diags, Diagnostic{
		Rule: rule, Element: element,
		Message: fmt.Sprintf(format, args...),
		Line:    line, Col: col,
	})
	return nil
}

// register records an element under its xmi:id so association ends and
// dependency participants can reference it. An empty id registers
// nothing, and a repeated id keeps the first element: the repeat is a
// defect, reported at the element that repeats it.
func (p *importer) register(id, element string, el any) error {
	if id == "" {
		return nil
	}
	if _, dup := p.byID[id]; dup {
		return p.failf("XMI-REF", element, "duplicate xmi:id %q", id)
	}
	p.byID[id] = el
	return nil
}

// checkStereotype records a diagnostic for stereotypes the configured
// profile checker does not know.
func (p *importer) checkStereotype(element, name, st string) {
	if st == "" || p.stereotypeKnown == nil || p.stereotypeKnown(element, st) {
		return
	}
	line, col := p.dec.Pos()
	p.diags = append(p.diags, Diagnostic{
		Rule: "XMI-STEREO", Element: name,
		Message: fmt.Sprintf("unknown %s stereotype %q", element, st),
		Line:    line, Col: col,
	})
}

func attr(se xml.StartElement, local string) string {
	for _, a := range se.Attr {
		if a.Name.Local == local {
			return a.Value
		}
	}
	return ""
}

func xmiType(se xml.StartElement) string {
	for _, a := range se.Attr {
		if a.Name.Local == "type" && (a.Name.Space == XMINamespace || a.Name.Space == "xmi") {
			return a.Value
		}
	}
	return attr(se, "type")
}

// parseMult reads the lower/upper multiplicity attributes; in lenient
// mode a malformed range is diagnosed and defaults to 1..1.
func (p *importer) parseMult(se xml.StartElement, element string) (uml.Multiplicity, error) {
	lower, upper := attr(se, "lower"), attr(se, "upper")
	if lower == "" && upper == "" {
		return uml.One, nil
	}
	m, err := uml.ParseMultiplicity(lower + ".." + upper)
	if err != nil {
		if ferr := p.failf("XMI-MULT", element, "malformed multiplicity %q..%q: %v", lower, upper, err); ferr != nil {
			return uml.One, ferr
		}
		return uml.One, nil
	}
	return m, nil
}

// taggedValue applies one taggedValue element; a missing tag name is a
// malformed tagged value.
func (p *importer) taggedValue(se xml.StartElement, element string, tags *uml.TaggedValues) error {
	tag := attr(se, "tag")
	if tag == "" {
		if err := p.failf("XMI-TAG", element, "taggedValue without tag name"); err != nil {
			return err
		}
		return p.dec.Skip()
	}
	tags.Set(tag, attr(se, "value"))
	return p.dec.Skip()
}

func (p *importer) document() (*uml.Model, error) {
	dec := p.dec
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmi: no uml:Model element found")
		}
		if err != nil {
			return nil, dec.Wrap("xmi", err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch {
		case se.Name.Local == "XMI":
			continue // descend
		case se.Name.Local == "Model" && se.Name.Space == UMLNamespace:
			return p.model(se)
		default:
			if err := p.failf("XMI-ELEM", se.Name.Local, "unexpected element <%s>", se.Name.Local); err != nil {
				return nil, err
			}
			if err := dec.Skip(); err != nil {
				return nil, dec.Wrap("xmi", err)
			}
		}
	}
}

func (p *importer) model(se xml.StartElement) (*uml.Model, error) {
	dec := p.dec
	m := uml.NewModel(attr(se, "name"))
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, dec.Wrap("xmi", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "taggedValue":
				if err := p.taggedValue(t, m.Name, &m.Tags); err != nil {
					return nil, err
				}
			case "packagedElement":
				if xmiType(t) != "uml:Package" {
					if err := p.failf("XMI-TYPE", attr(t, "name"), "model children must be packages, got %q", xmiType(t)); err != nil {
						return nil, err
					}
					if err := dec.Skip(); err != nil {
						return nil, dec.Wrap("xmi", err)
					}
					continue
				}
				p.checkStereotype("package", attr(t, "name"), attr(t, "stereotype"))
				pkg := m.AddPackage(attr(t, "name"), attr(t, "stereotype"))
				if err := p.register(attr(t, "id"), pkg.Name, pkg); err != nil {
					return nil, err
				}
				if err := p.packageBody(pkg); err != nil {
					return nil, err
				}
			default:
				if err := p.failf("XMI-ELEM", m.Name, "unexpected model child <%s>", t.Name.Local); err != nil {
					return nil, err
				}
				if err := dec.Skip(); err != nil {
					return nil, dec.Wrap("xmi", err)
				}
			}
		case xml.EndElement:
			if t.Name.Local == "Model" {
				return m, nil
			}
		}
	}
}

func (p *importer) packageBody(pkg *uml.Package) error {
	dec := p.dec
	for {
		tok, err := dec.Token()
		if err != nil {
			return dec.Wrap("xmi", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "taggedValue":
				if err := p.taggedValue(t, pkg.QualifiedName(), &pkg.Tags); err != nil {
					return err
				}
			case "packagedElement":
				if err := p.packagedElement(pkg, t); err != nil {
					return err
				}
			default:
				if err := p.failf("XMI-ELEM", pkg.QualifiedName(), "unexpected package child <%s>", t.Name.Local); err != nil {
					return err
				}
				if err := dec.Skip(); err != nil {
					return dec.Wrap("xmi", err)
				}
			}
		case xml.EndElement:
			return nil
		}
	}
}

func (p *importer) packagedElement(pkg *uml.Package, se xml.StartElement) error {
	id := attr(se, "id")
	name := attr(se, "name")
	switch xmiType(se) {
	case "uml:Package":
		p.checkStereotype("package", name, attr(se, "stereotype"))
		child := pkg.AddPackage(name, attr(se, "stereotype"))
		if err := p.register(id, name, child); err != nil {
			return err
		}
		return p.packageBody(child)
	case "uml:Class":
		p.checkStereotype("class", name, attr(se, "stereotype"))
		c := pkg.AddClass(name, attr(se, "stereotype"))
		if err := p.register(id, name, c); err != nil {
			return err
		}
		return p.classBody(c)
	case "uml:Enumeration":
		p.checkStereotype("enumeration", name, attr(se, "stereotype"))
		e := pkg.AddEnumeration(name, attr(se, "stereotype"))
		if err := p.register(id, name, e); err != nil {
			return err
		}
		return p.enumBody(e)
	case "uml:Association":
		role := attr(se, "role")
		p.checkStereotype("association", role, attr(se, "stereotype"))
		mult, err := p.parseMult(se, "association "+role)
		if err != nil {
			return err
		}
		kind, err := uml.ParseAggregationKind(attr(se, "aggregation"))
		if err != nil {
			if ferr := p.failf("XMI-AGG", "association "+role, "%v", err); ferr != nil {
				return ferr
			}
			kind = uml.AggregationNone
		}
		a := &uml.Association{
			Stereotype: attr(se, "stereotype"),
			TargetRole: role,
			TargetMult: mult,
			Kind:       kind,
		}
		pkg.AddAssociation(a)
		line, col := p.dec.Pos()
		p.associations = append(p.associations, pendingAssociation{
			assoc: a, owner: pkg, source: attr(se, "source"), target: attr(se, "target"),
			line: line, col: col,
		})
		return p.tagsOnly(&a.Tags, "association "+role)
	case "uml:Dependency":
		p.checkStereotype("dependency", "dependency", attr(se, "stereotype"))
		d := pkg.AddDependency(attr(se, "stereotype"), nil, nil)
		line, col := p.dec.Pos()
		p.dependencies = append(p.dependencies, pendingDependency{
			dep: d, owner: pkg, client: attr(se, "client"), supplier: attr(se, "supplier"),
			line: line, col: col,
		})
		return p.dec.Skip()
	default:
		if err := p.failf("XMI-TYPE", name, "unsupported packagedElement type %q", xmiType(se)); err != nil {
			return err
		}
		return p.dec.Skip()
	}
}

func (p *importer) tagsOnly(tags *uml.TaggedValues, element string) error {
	dec := p.dec
	for {
		tok, err := dec.Token()
		if err != nil {
			return dec.Wrap("xmi", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local == "taggedValue" {
				if err := p.taggedValue(t, element, tags); err != nil {
					return err
				}
				continue
			}
			if err := p.failf("XMI-ELEM", element, "unexpected element <%s>", t.Name.Local); err != nil {
				return err
			}
			if err := dec.Skip(); err != nil {
				return dec.Wrap("xmi", err)
			}
		case xml.EndElement:
			return nil
		}
	}
}

func (p *importer) classBody(c *uml.Class) error {
	dec := p.dec
	for {
		tok, err := dec.Token()
		if err != nil {
			return dec.Wrap("xmi", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "taggedValue":
				if err := p.taggedValue(t, c.QualifiedName(), &c.Tags); err != nil {
					return err
				}
			case "ownedAttribute":
				aname := attr(t, "name")
				p.checkStereotype("attribute", c.Name+"."+aname, attr(t, "stereotype"))
				mult, err := p.parseMult(t, "attribute "+c.Name+"."+aname)
				if err != nil {
					return err
				}
				a := c.AddAttribute(aname, attr(t, "stereotype"), attr(t, "type"), mult)
				if err := p.register(attr(t, "id"), "attribute "+c.Name+"."+aname, a); err != nil {
					return err
				}
				if err := p.tagsOnly(&a.Tags, "attribute "+c.Name+"."+aname); err != nil {
					return err
				}
			default:
				if err := p.failf("XMI-ELEM", c.QualifiedName(), "unexpected class child <%s>", t.Name.Local); err != nil {
					return err
				}
				if err := dec.Skip(); err != nil {
					return dec.Wrap("xmi", err)
				}
			}
		case xml.EndElement:
			return nil
		}
	}
}

func (p *importer) enumBody(e *uml.Enumeration) error {
	dec := p.dec
	for {
		tok, err := dec.Token()
		if err != nil {
			return dec.Wrap("xmi", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "taggedValue":
				if err := p.taggedValue(t, e.QualifiedName(), &e.Tags); err != nil {
					return err
				}
				continue
			case "ownedLiteral":
				e.AddLiteral(attr(t, "name"), attr(t, "value"))
			default:
				if err := p.failf("XMI-ELEM", e.QualifiedName(), "unexpected enumeration child <%s>", t.Name.Local); err != nil {
					return err
				}
			}
			if err := dec.Skip(); err != nil {
				return dec.Wrap("xmi", err)
			}
		case xml.EndElement:
			return nil
		}
	}
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
	classByID := func(id, context string) (*uml.Class, error) {
		el, ok := p.byID[id]
		if !ok {
			return nil, fmt.Errorf("xmi: %s references unknown id %q", context, id)
		}
		c, ok := el.(*uml.Class)
		if !ok {
			return nil, fmt.Errorf("xmi: %s id %q is not a class", context, id)
		}
		return c, nil
	}
	classifierByID := func(id, context string) (uml.Classifier, error) {
		el, ok := p.byID[id]
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
