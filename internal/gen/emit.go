package gen

import (
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/ndr"
	"github.com/go-ccts/ccts/internal/xsd"
)

// OpError is the structured error produced when one emission operation
// panics. The panic is confined to the operation: every other
// operation still runs, so a single run reports every failing
// operation via errors.Join.
type OpError struct {
	// Library and Kind name the library whose operation failed.
	Library string
	Kind    string
	// Op names the failing operation, e.g. `ABIE "Address"`.
	Op string
	// Recovered is the recovered panic value.
	Recovered any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("gen: panic emitting %s of %s %q: %v", e.Op, e.Kind, e.Library, e.Recovered)
}

// opLabel names an operation for OpError and status messages.
func opLabel(op Op) string {
	switch {
	case op.abie != nil:
		return fmt.Sprintf("ABIE %q", op.abie.Name)
	case op.cdt != nil:
		return fmt.Sprintf("CDT %q", op.cdt.Name)
	case op.qdt != nil:
		return fmt.Sprintf("QDT %q", op.qdt.Name)
	default:
		return fmt.Sprintf("ENUM %q", op.enum.Name)
	}
}

// testEmitFault, when non-nil, runs before every emission operation. It
// is the fault-injection hook of the test harness: tests make it panic
// or cancel the run to prove panic isolation and cancellation.
var testEmitFault func(lib *core.Library, op string)

// EachOp is the emit phase's one op loop: it calls fn for every op of
// the plan, one after another in plan order, where i is the index of
// the op's unit in Units. It counts every op in gen_emit_ops_total and
// sends one "emitted" status line after each unit.
//
// Failure semantics: a panicking fn is isolated into an OpError and the
// remaining ops still run, so the returned error (built with
// errors.Join) names every failing op, not just the first. A cancelled
// Options.Context stops the loop before its next op, or after its last,
// and returns the wrapped context error.
func (p *Plan) EachOp(fn func(i int, u *Unit, op Op)) error {
	ctx := p.opts.ctx()
	// Without Options.Metrics a detached counter counts into the void.
	opsDone := &metrics.Counter{}
	if p.opts.Metrics != nil {
		opsDone = p.opts.Metrics.Counter("gen_emit_ops_total", "Emission operations executed.")
	}
	var errs []error
	for i, u := range p.units {
		for _, op := range u.ops {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("gen: emit cancelled: %w", err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						errs = append(errs, &OpError{
							Library:   u.lib.Name,
							Kind:      u.lib.Kind.String(),
							Op:        opLabel(op),
							Recovered: r,
							Stack:     debug.Stack(),
						})
					}
				}()
				if testEmitFault != nil {
					testEmitFault(u.lib, opLabel(op))
				}
				fn(i, u, op)
			}()
			opsDone.Inc()
		}
		p.opts.status("emitted %d definition(s) for %s %s", len(u.ops), u.lib.Kind, u.lib.Name)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("gen: emit cancelled: %w", err)
	}
	return errors.Join(errs...)
}

// execute runs the native XSD emit phase: EachOp appends every op's
// type node to its unit's schema, then each schema gets its namespace
// declarations, imports and global elements. The plan fixed all
// ordering, prefixes and imports up front, so the output is a function
// of the plan alone. Failures are EachOp's.
func (p *Plan) execute() (*Result, error) {
	schemas := make([]*xsd.Schema, len(p.units))
	for i, u := range p.units {
		schemas[i] = xsd.NewSchema(p.Namespace(u.lib))
	}
	err := p.EachOp(func(i int, u *Unit, op Op) {
		s := schemas[i]
		switch {
		case op.abie != nil:
			s.ComplexTypes = append(s.ComplexTypes, p.emitABIE(u, op.abie))
		case op.cdt != nil:
			s.ComplexTypes = append(s.ComplexTypes, p.emitCDT(op.cdt))
		case op.qdt != nil:
			s.ComplexTypes = append(s.ComplexTypes, p.emitQDT(op.qdt))
		default:
			s.SimpleTypes = append(s.SimpleTypes, p.emitENUM(op.enum))
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Schemas: map[string]*xsd.Schema{}, Index: p.index}
	for i, u := range p.units {
		s := schemas[i]
		s.Version = u.lib.Version
		for _, d := range u.decls {
			if err := s.DeclareNamespace(d.Prefix, d.URI); err != nil {
				return nil, err
			}
		}
		s.Imports = append(s.Imports, u.imports...)
		for _, asbie := range u.globals {
			global := &xsd.Element{
				Name: p.index.ASBIEElementName(asbie),
				Type: p.prefixes[asbie.Target.Library()] + ":" + p.index.ABIETypeName(asbie.Target),
			}
			if p.opts.Annotate {
				global.Annotation = ndr.ASBIEAnnotation(p.index, asbie)
			}
			s.Elements = append(s.Elements, global)
		}
		res.Schemas[u.file] = s
		res.Order = append(res.Order, u.file)
	}
	if p.root != nil {
		// The selected root element: exactly one global element
		// declaration, appended after the document schema's globals.
		primary := res.Schemas[p.units[0].file]
		rootName := p.index.ABIEElementName(p.root)
		primary.Elements = append(primary.Elements, &xsd.Element{
			Name: rootName,
			Type: p.prefixes[p.units[0].lib] + ":" + p.index.ABIETypeName(p.root),
		})
		res.RootElement = rootName
	}
	return res, nil
}

// emitABIE writes the complexType for an ABIE: the BBIE elements first,
// then the ASBIEs as inline elements or refs to the unit's globals.
func (p *Plan) emitABIE(u *Unit, abie *core.ABIE) *xsd.ComplexType {
	ix := p.index
	ct := &xsd.ComplexType{Name: ix.ABIETypeName(abie)}
	if p.opts.Annotate {
		ct.Annotation = ndr.ABIEAnnotation(ix, abie)
	}
	for _, bbie := range abie.BBIEs {
		el := &xsd.Element{
			Name:   ix.BBIEElementName(bbie),
			Type:   p.prefixes[bbie.Type.DataTypeLibrary()] + ":" + ix.DataTypeName(bbie.Type),
			Occurs: occursOf(bbie.Card),
		}
		if p.opts.Annotate {
			el.Annotation = ndr.BBIEAnnotation(ix, bbie)
		}
		ct.Sequence = append(ct.Sequence, el)
	}
	for _, asbie := range abie.ASBIEs {
		name := ix.ASBIEElementName(asbie)
		if globalStyle(p.opts.Style, asbie.Kind) {
			// Figure 7: reference the global declaration merged from
			// u.globals.
			ct.Sequence = append(ct.Sequence, &xsd.Element{
				Ref:    p.prefixes[u.lib] + ":" + name,
				Occurs: occursOf(asbie.Card),
			})
			continue
		}
		el := &xsd.Element{
			Name:   name,
			Type:   p.prefixes[asbie.Target.Library()] + ":" + ix.ABIETypeName(asbie.Target),
			Occurs: occursOf(asbie.Card),
		}
		if p.opts.Annotate {
			el.Annotation = ndr.ASBIEAnnotation(ix, asbie)
		}
		ct.Sequence = append(ct.Sequence, el)
	}
	return ct
}

// emitCDT writes the Figure 8 pattern: a complexType with simpleContent
// extending the XSD built-in of the content component's primitive, with
// the supplementary components as attributes.
func (p *Plan) emitCDT(cdt *core.CDT) *xsd.ComplexType {
	base := ndr.ContentBuiltin(cdt)
	if override, ok := p.Datatype(cdt.Name); ok {
		base = override
	}
	ext := &xsd.Extension{Base: base}
	for i := range cdt.Sups {
		sup := &cdt.Sups[i]
		ext.Attributes = append(ext.Attributes, &xsd.Attribute{
			Name: p.index.SupAttributeName(sup),
			Type: supAttributeType(sup),
			Use:  core.AttributeUse(sup.Card),
		})
	}
	ct := &xsd.ComplexType{
		Name:          p.index.DataTypeName(cdt),
		SimpleContent: &xsd.SimpleContent{Extension: ext},
	}
	if p.opts.Annotate {
		ct.Annotation = ndr.CDTAnnotation(p.index, cdt)
	}
	return ct
}

// supAttributeType maps a supplementary component's type to an attribute
// type; primitives use XSD built-ins.
func supAttributeType(sup *core.SupplementaryComponent) string {
	if prim, ok := sup.Type.(*core.PRIM); ok {
		return ndr.XSDBuiltin(prim)
	}
	// ENUM-restricted SUPs fall back to xsd:token at the attribute level;
	// the QDT emitter upgrades them to the enum simple type when it can
	// import the ENUM library.
	return "xsd:token"
}

// emitQDT writes a qualified data type: like a CDT, but when the content
// component is restricted by an enumeration the enumeration's simpleType
// becomes the extension base ("the complexType of the enumeration is
// used for the restriction").
func (p *Plan) emitQDT(qdt *core.QDT) *xsd.ComplexType {
	ix := p.index
	var base string
	switch t := qdt.Content.Type.(type) {
	case *core.ENUM:
		base = p.prefixes[t.Library()] + ":" + ix.ENUMTypeName(t)
	case *core.PRIM:
		// Inherit the representation-term refinement of the underlying
		// CDT (Date -> xsd:date), falling back to the primitive mapping.
		if qdt.BasedOn != nil {
			base = ndr.ContentBuiltin(qdt.BasedOn)
		} else {
			base = ndr.XSDBuiltin(t)
		}
	}
	if override, ok := p.Datatype(qdt.Name); ok {
		base = override
	}
	ext := &xsd.Extension{Base: base}
	for i := range qdt.Sups {
		sup := &qdt.Sups[i]
		typeRef := ""
		if en, ok := sup.Type.(*core.ENUM); ok {
			typeRef = p.prefixes[en.Library()] + ":" + ix.ENUMTypeName(en)
		} else {
			typeRef = supAttributeType(sup)
		}
		ext.Attributes = append(ext.Attributes, &xsd.Attribute{
			Name: ix.SupAttributeName(sup),
			Type: typeRef,
			Use:  core.AttributeUse(sup.Card),
		})
	}
	ct := &xsd.ComplexType{
		Name:          ix.DataTypeName(qdt),
		SimpleContent: &xsd.SimpleContent{Extension: ext},
	}
	if p.opts.Annotate {
		ct.Annotation = ndr.QDTAnnotation(ix, qdt)
	}
	return ct
}

// emitENUM writes the enumeration pattern: "The simpleType contains a
// restriction with base xsd:token. The values are then defined in
// enumeration tags."
func (p *Plan) emitENUM(e *core.ENUM) *xsd.SimpleType {
	st := &xsd.SimpleType{
		Name: p.index.ENUMTypeName(e),
		Restriction: &xsd.Restriction{
			Base:         "xsd:token",
			Enumerations: e.LiteralNames(),
		},
	}
	if p.opts.Annotate {
		st.Annotation = ndr.ENUMAnnotation(e)
	}
	return st
}
