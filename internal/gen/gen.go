// Package gen implements the paper's XSD generator (Section 4) as a
// three-phase pipeline. Resolve builds a core.ModelIndex of per-library
// symbol tables and memoized NDR names. Plan walks every outgoing
// aggregation and composition connector — starting from a selected
// library, usually a DOCLibrary root element — and records a
// deterministic Plan: topologically ordered library units with their
// cross-imports, emission operations and global-element decisions. Emit
// renders the plan: the native XSD path and every backend that renders
// op by op walk it with Plan.EachOp, the one op loop, which runs the
// operations one after another in plan order. See DESIGN.md for the
// architecture.
package gen

import (
	"context"
	"errors"
	"fmt"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/xsd"
)

// ASBIEStyle selects which aggregation kind is generated as a global
// element plus ref (Figure 7) rather than an inline local element.
type ASBIEStyle int

const (
	// GlobalShared follows the paper's running example: shared (hollow
	// diamond) aggregations are declared globally and referenced, while
	// compositions become inline local elements. Default.
	GlobalShared ASBIEStyle = iota
	// GlobalComposite follows the paper's Section 4.1 prose ("If an ASBIE
	// is connected by a composition the ASBIE is first declared globally")
	// which contradicts its own example; provided for completeness.
	GlobalComposite
)

// Options steer the generation run, mirroring the dialog of Figure 5.
type Options struct {
	// Annotate adds the CCTS documentation blocks to every generated
	// construct.
	Annotate bool
	// Style selects the global-element rule; see ASBIEStyle.
	Style ASBIEStyle
	// Status receives progress messages during generation ("status
	// messages are passed back to the user interface"); nil discards
	// them. It is called on the generating goroutine, and the messages
	// of a run arrive in a fixed order: the plan walk's in model order,
	// then one "emitted" line per library in plan order.
	Status func(string)
	// Index is the resolve-phase model index to reuse. When nil, the
	// generator resolves one itself; callers generating repeatedly from
	// an unchanged model (or threading the index on to validation and
	// instance generation) should build it once with core.NewModelIndex
	// and share it.
	Index *core.ModelIndex
	// Context cancels the run. Both the plan walk and the emit phase
	// observe it: a cancelled context stops the run before its next
	// operation and surfaces as a wrapped context error. Nil means
	// context.Background(). It is the only way to cancel a run: SIGINT
	// handling, deadlines and per-request budgets in a serving
	// deployment all arrive here.
	Context context.Context
	// Metrics, when non-nil, receives the emit phase's
	// gen_emit_ops_total counter of executed emission operations. The
	// serving subsystem sets this so /metrics exposes generator
	// activity; batch callers normally leave it nil.
	Metrics *metrics.Registry
	// Profile is the per-run generation profile: datatype mapping
	// overrides, namespace rewrites, import-location overrides and root
	// preselection. Nil (or the zero Profile) changes nothing — output
	// is byte-identical to a profile-less run. Profiles apply to every
	// backend and participate in cache fingerprints.
	Profile *Profile
}

// ctx returns the effective run context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// status sends one progress message to Options.Status, if set.
func (o *Options) status(format string, args ...any) {
	if o.Status != nil {
		o.Status(fmt.Sprintf(format, args...))
	}
}

// ErrPRIMLibrary is returned when schema generation is requested for a
// PRIMLibrary; the paper: "For PRIMLibraries currently no schema
// generation mechanism is implemented. Where primitive types are needed
// (String, Integer ...) the build-in types of the XSD schema are taken."
var ErrPRIMLibrary = errors.New("gen: PRIMLibraries generate no schema; XSD built-in types are used instead")

// ErrNoRoot is returned, wrapped with the ABIEs to choose from, when a
// DOCLibrary run selects no root ABIE: the caller names none and the
// profile preselects none.
var ErrNoRoot = errors.New("gen: no root ABIE selected")

// Result is the outcome of one generation run: the schema for the
// requested library plus every transitively imported schema.
type Result struct {
	// Schemas maps generated file names to schema documents.
	Schemas map[string]*xsd.Schema
	// Order lists the file names in deterministic generation order; the
	// requested library's schema is first.
	Order []string
	// RootElement is the selected root element name for DOCLibrary runs.
	RootElement string
	// Index is the resolve-phase model index the run used; downstream
	// consumers (schema compilation, instance generation) reuse it
	// instead of re-deriving names.
	Index *core.ModelIndex
}

// Schema returns the generated schema for the given library, or nil.
func (r *Result) Schema(lib *core.Library) *xsd.Schema {
	return r.Schemas[core.SchemaFileName(lib)]
}

// Primary returns the schema of the requested library.
func (r *Result) Primary() *xsd.Schema {
	if len(r.Order) == 0 {
		return nil
	}
	return r.Schemas[r.Order[0]]
}

// GenerateDocument runs the plan of NewPlan through the native XSD
// emitter and returns the typed schema set. For a DOCLibrary this is
// the workflow of Figure 5: "Because a DOCLibrary can contain many
// aggregate business information entities, the user must first select
// a root element for the schema." Other kinds ignore the root.
func GenerateDocument(lib *core.Library, rootABIE string, opts Options) (*Result, error) {
	plan, err := NewPlan(lib, rootABIE, opts)
	if err != nil {
		return nil, err
	}
	res, err := plan.execute()
	if err != nil {
		return nil, err
	}
	opts.status("generated %d schema(s)", len(res.Order))
	return res, nil
}

// resolveIndex returns the caller-supplied index or builds one covering
// the library (the whole owning model, or the transitive closure of a
// detached library).
func resolveIndex(opts Options, lib *core.Library) *core.ModelIndex {
	if opts.Index != nil {
		return opts.Index
	}
	if m := lib.Model(); m != nil {
		return core.NewModelIndex(m)
	}
	return core.IndexLibraries(lib)
}

// occursOf maps a CCTS cardinality to an XSD occurrence range, emitting
// minOccurs/maxOccurs only when they differ from the defaults (Figure 6
// shows bare elements for [1..1]).
func occursOf(card core.Cardinality) xsd.Occurs {
	return xsd.Occurs{Min: card.Lower, Max: card.Upper}
}
