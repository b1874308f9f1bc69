package gen

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/ndr"
	"github.com/go-ccts/ccts/internal/xsd"
)

// opOut is the node produced by one emission operation: a complexType
// (ABIE, CDT, QDT) or a simpleType (ENUM).
type opOut struct {
	ct *xsd.ComplexType
	st *xsd.SimpleType
}

// opRef addresses one operation inside the plan's unit/op grid.
type opRef struct{ unit, op int }

// OpError is the structured error produced when one emission operation
// panics. The panic is confined to the operation: the worker pool
// drains cleanly and every other library still emits, so a single run
// reports every failing operation via errors.Join.
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
// or block to prove panic isolation and clean cancellation drain.
var testEmitFault func(lib *core.Library, op string)

// safeOp runs operation j of a unit through run with panic isolation:
// a panicking operation becomes a structured OpError instead of
// crashing the process or wedging the pool. The native XSD path and
// every backend run their operations through it.
func safeOp[T any](u *Unit, j int, run func(*Unit, Op) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out, err = zero, &OpError{
				Library:   u.lib.Name,
				Kind:      u.lib.Kind.String(),
				Op:        opLabel(u.ops[j]),
				Recovered: r,
				Stack:     debug.Stack(),
			}
		}
	}()
	if testEmitFault != nil {
		testEmitFault(u.lib, opLabel(u.ops[j]))
	}
	return run(u, u.ops[j])
}

// Execute runs the emit phase: every operation of the plan is executed
// — on a bounded worker pool when Options.Parallelism asks for one —
// and the resulting nodes are merged into schema documents in plan
// order. Because the plan fixed all ordering, prefixes and imports
// up front and each operation only reads the immutable plan and model
// index, the output is byte-identical regardless of worker count.
//
// Failure semantics: a panicking operation is isolated into an OpError
// and the remaining operations still run, so the returned error (built
// with errors.Join) names every failing library, not just the first. A
// cancelled Options.Context stops workers claiming further operations,
// drains the pool and returns the wrapped context error.
func (p *Plan) Execute() (*Result, error) {
	outs, err := executeGrid(p, func(u *Unit, op Op) (opOut, error) {
		return p.runOp(u, op), nil
	})
	if err != nil {
		return nil, err
	}
	return p.merge(outs)
}

// executeGrid runs every operation of the plan through run under
// safeOp, sequentially or on the bounded worker pool, and returns the
// per-unit result grid in plan order. It is the shared engine under
// Execute (native XSD) and ExecuteBackend.
func executeGrid[T any](p *Plan, run func(*Unit, Op) (T, error)) ([][]T, error) {
	ctx := p.opts.ctx()
	outs := make([][]T, len(p.units))
	errs := make([][]error, len(p.units))
	for i, u := range p.units {
		outs[i] = make([]T, len(u.ops))
		errs[i] = make([]error, len(u.ops))
	}
	workers := p.opts.Parallelism
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > p.totalOps {
		workers = p.totalOps
	}
	if workers <= 1 {
		opsDone, active := p.poolInstruments()
		active.Inc()
		for i, u := range p.units {
			for j := range u.ops {
				if ctx.Err() != nil {
					active.Dec()
					return nil, fmt.Errorf("gen: emit cancelled: %w", ctx.Err())
				}
				outs[i][j], errs[i][j] = safeOp(u, j, run)
				opsDone.Inc()
			}
			p.sink.emitf("emitted %d definition(s) for %s %s", len(u.ops), u.lib.Kind, u.lib.Name)
		}
		active.Dec()
	} else {
		executeParallel(p, ctx, outs, errs, workers, run)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gen: emit cancelled: %w", err)
	}
	if err := joinOpErrors(errs); err != nil {
		return nil, err
	}
	return outs, nil
}

// joinOpErrors aggregates the per-operation error grid in plan order so
// one run reports every failing library.
func joinOpErrors(errs [][]error) error {
	var all []error
	for _, unit := range errs {
		for _, err := range unit {
			if err != nil {
				all = append(all, err)
			}
		}
	}
	return errors.Join(all...)
}

// poolInstruments returns the emit-phase instruments: an operation
// counter and a live-worker gauge. When Options.Metrics is nil they are
// detached instruments that count into the void, so the hot path needs
// no nil checks.
func (p *Plan) poolInstruments() (*metrics.Counter, *metrics.Gauge) {
	if p.opts.Metrics == nil {
		return &metrics.Counter{}, &metrics.Gauge{}
	}
	return p.opts.Metrics.Counter("gen_emit_ops_total", "Emission operations executed."),
		p.opts.Metrics.Gauge("gen_emit_workers_active", "Live emit-pool workers.")
}

// executeParallel fans the flattened operation list out to the worker
// pool in chunks; a per-unit countdown reports each library's
// completion through the serialized status sink. Workers observe the
// context between operations, so cancellation drains the pool without
// leaking goroutines or deadlocking the chunk counter.
func executeParallel[T any](p *Plan, ctx context.Context, outs [][]T, errs [][]error, workers int, run func(*Unit, Op) (T, error)) {
	flat := make([]opRef, 0, p.totalOps)
	remaining := make([]atomic.Int64, len(p.units))
	for i, u := range p.units {
		remaining[i].Store(int64(len(u.ops)))
		if len(u.ops) == 0 {
			p.sink.emitf("emitted 0 definition(s) for %s %s", u.lib.Kind, u.lib.Name)
		}
		for j := range u.ops {
			flat = append(flat, opRef{unit: i, op: j})
		}
	}
	// Chunked claiming keeps contention on the shared counter low while
	// still balancing uneven units across workers.
	chunk := int64(p.totalOps / (workers * 4))
	if chunk < 1 {
		chunk = 1
	} else if chunk > 64 {
		chunk = 64
	}
	opsDone, active := p.poolInstruments()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			active.Inc()
			defer active.Dec()
			for {
				if ctx.Err() != nil {
					return
				}
				start := next.Add(chunk) - chunk
				if start >= int64(len(flat)) {
					return
				}
				end := start + chunk
				if end > int64(len(flat)) {
					end = int64(len(flat))
				}
				for _, ref := range flat[start:end] {
					if ctx.Err() != nil {
						return
					}
					u := p.units[ref.unit]
					outs[ref.unit][ref.op], errs[ref.unit][ref.op] = safeOp(u, ref.op, run)
					opsDone.Inc()
					if remaining[ref.unit].Add(-1) == 0 {
						p.sink.emitf("emitted %d definition(s) for %s %s", len(u.ops), u.lib.Kind, u.lib.Name)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// merge assembles the schema documents from the executed operations in
// plan order; this is the only phase that touches the schemas, so the
// parallel and sequential paths converge here.
func (p *Plan) merge(outs [][]opOut) (*Result, error) {
	res := &Result{Schemas: map[string]*xsd.Schema{}, Index: p.index}
	for i, u := range p.units {
		s := xsd.NewSchema(p.Namespace(u.lib))
		s.Version = u.lib.Version
		for _, d := range u.decls {
			if err := s.DeclareNamespace(d.Prefix, d.URI); err != nil {
				return nil, err
			}
		}
		s.Imports = append(s.Imports, u.imports...)
		for _, out := range outs[i] {
			switch {
			case out.ct != nil:
				s.ComplexTypes = append(s.ComplexTypes, out.ct)
			case out.st != nil:
				s.SimpleTypes = append(s.SimpleTypes, out.st)
			}
		}
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
	p.sink.emitf("generated %d schema(s)", len(res.Order))
	return res, nil
}

// runOp executes one emission operation. Operations are infallible —
// every error was caught while planning — and read only the immutable
// plan and index, so they are safe to run concurrently.
func (p *Plan) runOp(u *Unit, op Op) opOut {
	switch {
	case op.abie != nil:
		return opOut{ct: p.emitABIE(u, op.abie)}
	case op.cdt != nil:
		return opOut{ct: p.emitCDT(op.cdt)}
	case op.qdt != nil:
		return opOut{ct: p.emitQDT(op.qdt)}
	default:
		return opOut{st: p.emitENUM(op.enum)}
	}
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
