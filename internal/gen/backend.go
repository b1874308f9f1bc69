package gen

import (
	"fmt"

	"github.com/go-ccts/ccts/internal/core"
)

// OutFile is one generated output document.
type OutFile struct {
	Name string
	Data []byte
}

// Output is the serialized result of running a plan through a backend:
// the generated files in deterministic plan order plus the selected
// root element/message name (empty for library runs).
type Output struct {
	// Target is the backend identifier ("xsd", "jsonschema", "proto",
	// "rng", "rdfs", "go").
	Target string
	// ContentType is the MIME type of the generated files.
	ContentType string
	// Files are the generated documents in plan (topological first-use)
	// order; the requested library's document is first.
	Files []OutFile
	// RootElement is the root element / message selected for document
	// runs, in the backend's naming convention.
	RootElement string
}

// Backend turns a plan into target-language output: each target is
// one view of the same plan. Generate is a function of the immutable
// plan alone and runs on the caller's goroutine. A backend that renders
// one block per op walks the plan with EachOp, which gives it plan
// order, per-op panic isolation, cancellation and the "emitted" status
// lines. A backend whose output depends on a stateful walk of its own
// (unique-name allocation, say) renders the plan in one pass without
// per-op isolation.
type Backend interface {
	// Target returns the backend identifier used in CLI flags and the
	// /v1/generate 'target' parameter.
	Target() string
	// ContentType returns the MIME type of generated files.
	ContentType() string
	// Generate renders the plan's output files.
	Generate(p *Plan) (*Output, error)
}

// ExecuteBackend runs a plan through a backend: a cancellation check,
// one Generate call, then the run's summary status line.
func (p *Plan) ExecuteBackend(b Backend) (*Output, error) {
	if err := p.opts.ctx().Err(); err != nil {
		return nil, fmt.Errorf("gen: emit cancelled: %w", err)
	}
	out, err := b.Generate(p)
	if err != nil {
		return nil, err
	}
	out.Target, out.ContentType = b.Target(), b.ContentType()
	p.opts.status("generated %d %s file(s)", len(out.Files), out.Target)
	return out, nil
}

// Units returns the plan's emission units in plan order. The slice and
// units are shared with the plan; backends must treat them as
// read-only.
func (p *Plan) Units() []*Unit { return p.units }

// Root returns the selected root ABIE of a document plan, or nil for
// library plans.
func (p *Plan) Root() *core.ABIE { return p.root }

// Annotate reports whether the run asked for embedded documentation.
func (p *Plan) Annotate() bool { return p.opts.Annotate }

// Profile returns the run's generation profile (possibly nil).
func (p *Plan) Profile() *Profile { return p.opts.Profile }

// Namespace returns the effective target namespace of a library: the
// profile override when one applies, else the modeled baseURN.
func (p *Plan) Namespace(lib *core.Library) string {
	return p.opts.Profile.Namespace(lib)
}

// Datatype returns the profile's datatype override for a CDT/QDT name.
func (p *Plan) Datatype(typeName string) (string, bool) {
	return p.opts.Profile.Datatype(typeName)
}

// Library returns the library this unit emits.
func (u *Unit) Library() *core.Library { return u.lib }

// File returns the unit's XSD schema file name; non-XSD backends
// derive their own names from it or from the library.
func (u *Unit) File() string { return u.file }

// Ops returns the unit's emission operations in plan order.
func (u *Unit) Ops() []Op { return u.ops }

// ImportedLibraries returns the libraries this unit imports, in
// first-use order.
func (u *Unit) ImportedLibraries() []*core.Library { return u.importLibs }

// ABIE returns the op's ABIE, or nil if this is not an ABIE op.
func (op Op) ABIE() *core.ABIE { return op.abie }

// CDT returns the op's CDT, or nil.
func (op Op) CDT() *core.CDT { return op.cdt }

// QDT returns the op's QDT, or nil.
func (op Op) QDT() *core.QDT { return op.qdt }

// ENUM returns the op's ENUM, or nil.
func (op Op) ENUM() *core.ENUM { return op.enum }
