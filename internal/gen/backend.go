package gen

import (
	"fmt"

	"github.com/go-ccts/ccts/internal/core"
)

// Fragment is the value one emission operation produces for a backend:
// an opaque, backend-defined intermediate (an XSD type node, a JSON
// Schema definition, a proto message body). Fragments are assembled
// into files strictly in plan order.
type Fragment any

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

// Backend turns a plan into target-language output. The contract:
//
//   - EmitOp is called once per op, in plan order, each call isolated:
//     a panic becomes that op's OpError and the run goes on. It should
//     be a function of the immutable plan, unit and op alone.
//   - Assemble receives every fragment in exact plan order (fragment
//     [i][j] belongs to unit i, op j) and runs once. All ordering,
//     numbering and naming that depends on position belongs here (or
//     in the plan), never in EmitOp.
//
// A backend whose output depends on emission order (e.g. stateful
// unique-name allocation) can return placeholder fragments from EmitOp
// and do the full walk in Assemble.
type Backend interface {
	// Target returns the backend identifier used in CLI flags and the
	// /v1/generate 'target' parameter.
	Target() string
	// ContentType returns the MIME type of generated files.
	ContentType() string
	// EmitOp produces the fragment for one operation.
	EmitOp(p *Plan, u *Unit, op Op) (Fragment, error)
	// Assemble merges the per-op fragments into output files.
	Assemble(p *Plan, frags [][]Fragment) (*Output, error)
}

// ExecuteBackend runs the emit phase through a backend on the same
// loop as Execute, with the same guarantees: per-op panic isolation
// into OpError, errors.Join aggregation and a cancellation check
// before each op.
func (p *Plan) ExecuteBackend(b Backend) (*Output, error) {
	frags, err := executeGrid(p, func(u *Unit, op Op) (Fragment, error) {
		frag, err := b.EmitOp(p, u, op)
		if err != nil {
			err = fmt.Errorf("gen: emitting %s of %s %q: %w", opLabel(op), u.lib.Kind, u.lib.Name, err)
		}
		return frag, err
	})
	if err != nil {
		return nil, err
	}
	out, err := b.Assemble(p, frags)
	if err != nil {
		return nil, err
	}
	if out.Target == "" {
		out.Target = b.Target()
	}
	if out.ContentType == "" {
		out.ContentType = b.ContentType()
	}
	p.opts.status("generated %d %s file(s)", len(out.Files), out.Target)
	return out, nil
}

// Units returns the plan's emission units in plan order. The slice and
// units are shared with the plan; backends must treat them as
// read-only.
func (p *Plan) Units() []*Unit { return p.units }

// Prefix returns the namespace prefix the plan allocated for a
// library (empty for libraries the plan does not touch).
func (p *Plan) Prefix(lib *core.Library) string { return p.prefixes[lib] }

// Root returns the selected root ABIE of a document plan, or nil for
// library plans.
func (p *Plan) Root() *core.ABIE { return p.root }

// Annotate reports whether the run asked for embedded documentation.
func (p *Plan) Annotate() bool { return p.opts.Annotate }

// Style returns the run's ASBIE global-element style.
func (p *Plan) Style() ASBIEStyle { return p.opts.Style }

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

// Globals returns the ASBIEs declared as global elements, in the order
// the plan walk first reached them.
func (u *Unit) Globals() []*core.ASBIE { return u.globals }

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
