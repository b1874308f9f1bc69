package gen

import (
	"errors"
	"fmt"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/ndr"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xsd"
)

// Plan is the deterministic output of the plan phase: the library units
// to emit in topological first-use order, each with its namespace
// declarations, imports, emission operations and global-element
// decisions already fixed. A Plan is immutable once built. All model
// errors (missing baseURN, colliding file names, unresolvable data
// types, unsupported content) are caught while planning, so every
// operation of the emit phase is infallible.
type Plan struct {
	opts  Options
	index *core.ModelIndex
	units []*Unit
	// prefixes snapshots the namespace prefix of every library the plan
	// touches (allocation order matters: the allocator numbered them
	// during the walk).
	prefixes map[*core.Library]string
	// root is the selected root ABIE for DOCLibrary plans, emitted as
	// the document's single global element; nil otherwise.
	root *core.ABIE
}

// Index returns the resolve-phase model index the plan was built
// against.
func (p *Plan) Index() *core.ModelIndex { return p.index }

// Unit is the emission work for one library: one schema document.
type Unit struct {
	lib  *core.Library
	file string
	// decls are the xmlns declarations in first-use order (own prefix,
	// ccts when annotating, then imported namespaces).
	decls []xsd.Namespace
	// imports are the xsd:import records in first-use order.
	imports []xsd.Import
	// ops are the type-emission operations in legacy walk order (DFS
	// preorder over ABIEs; declaration order for data types).
	ops []Op
	// globals are the ASBIEs declared as global elements, in the order
	// the walk first reached them.
	globals []*core.ASBIE
	// importLibs are the imported libraries in first-use order — the
	// backend-neutral counterpart of imports, used by non-XSD backends
	// to derive their own import statements.
	importLibs []*core.Library
}

// Op is one independent emission operation; exactly one field is
// set. ABIE/CDT/QDT ops produce a complexType, ENUM ops a simpleType.
type Op struct {
	abie *core.ABIE
	cdt  *core.CDT
	qdt  *core.QDT
	enum *core.ENUM
}

// planner mirrors the state of the former recursive generator, but
// records operations instead of building schema nodes.
type planner struct {
	opts     Options
	index    *core.ModelIndex
	prefixes *ndr.PrefixAllocator
	plan     *Plan
	units    map[*core.Library]*Unit
	files    map[string]bool
	done     map[*core.Library]bool
	emitted  map[*core.ABIE]bool
	// declared/imported/globalSeen dedupe per-unit declarations the way
	// Schema.DeclareNamespace and the import/global checks used to.
	declared   map[*Unit]map[string]string
	imported   map[*Unit]map[string]bool
	globalSeen map[*Unit]map[string]bool
}

func newPlanner(lib *core.Library, opts Options) *planner {
	pl := &planner{
		opts:       opts,
		index:      resolveIndex(opts, lib),
		prefixes:   ndr.NewPrefixAllocator(),
		units:      map[*core.Library]*Unit{},
		files:      map[string]bool{},
		done:       map[*core.Library]bool{},
		emitted:    map[*core.ABIE]bool{},
		declared:   map[*Unit]map[string]string{},
		imported:   map[*Unit]map[string]bool{},
		globalSeen: map[*Unit]map[string]bool{},
	}
	pl.plan = &Plan{
		opts:     opts,
		index:    pl.index,
		prefixes: map[*core.Library]string{},
	}
	return pl
}

// NewPlan builds the generation plan for a library; every generation
// run, whatever its target, starts here. A DOCLibrary run starts at its
// root ABIE: rootABIE, or else the profile's preselected root; without
// either it fails with ErrNoRoot, listing the ABIEs to choose from.
// Other kinds ignore the root: a BIE, CDT, QDT or ENUM library plans
// all its elements, and a PRIMLibrary returns ErrPRIMLibrary.
func NewPlan(lib *core.Library, rootABIE string, opts Options) (*Plan, error) {
	if lib == nil {
		return nil, errors.New("gen: nil library")
	}
	if lib.Kind == core.KindDOCLibrary {
		return planDocument(lib, opts.Profile.RootOr(rootABIE), opts)
	}
	pl := newPlanner(lib, opts)
	pl.opts.status("generating schema for %s %s", lib.Kind, lib.Name)
	switch lib.Kind {
	case core.KindPRIMLibrary:
		return nil, ErrPRIMLibrary
	case core.KindCCLibrary:
		return nil, fmt.Errorf("gen: CCLibrary %q: core components are conceptual; schemas are generated from business information entities", lib.Name)
	case core.KindBIELibrary, core.KindCDTLibrary, core.KindQDTLibrary, core.KindENUMLibrary:
		if err := pl.ensureLibrary(lib); err != nil {
			return nil, err
		}
		return pl.finish(), nil
	default:
		return nil, fmt.Errorf("gen: unsupported library kind %v", lib.Kind)
	}
}

// planDocument plans a DOCLibrary document from the named root ABIE.
func planDocument(lib *core.Library, rootABIE string, opts Options) (*Plan, error) {
	root := lib.FindABIE(rootABIE)
	if root == nil {
		roots := make([]string, len(lib.ABIEs))
		for i, abie := range lib.ABIEs {
			roots[i] = abie.Name
		}
		if rootABIE == "" {
			return nil, fmt.Errorf("%w: DOCLibrary %q needs one, given or preselected by the profile; available: %v", ErrNoRoot, lib.Name, roots)
		}
		return nil, fmt.Errorf("gen: DOCLibrary %q has no ABIE %q to use as root; available: %v", lib.Name, rootABIE, roots)
	}
	pl := newPlanner(lib, opts)
	pl.opts.status("generating document schema for %s (root %s)", lib.Name, rootABIE)
	u, err := pl.unitFor(lib)
	if err != nil {
		return nil, err
	}
	if err := pl.planABIETree(u, lib, root); err != nil {
		return nil, err
	}
	pl.plan.root = root
	return pl.finish(), nil
}

// finish snapshots the prefix assignments into the immutable plan.
func (pl *planner) finish() *Plan {
	for _, u := range pl.plan.units {
		pl.plan.prefixes[u.lib] = pl.prefixes.Prefix(u.lib)
	}
	return pl.plan
}

// unitFor returns (creating on first use) the plan unit of a library
// and registers it in emission order, mirroring the former schemaFor.
func (pl *planner) unitFor(lib *core.Library) (*Unit, error) {
	if u, ok := pl.units[lib]; ok {
		return u, nil
	}
	if lib.BaseURN == "" {
		return nil, fmt.Errorf("gen: library %q has no baseURN tagged value; cannot determine target namespace", lib.Name)
	}
	u := &Unit{lib: lib, file: pl.index.SchemaFile(lib)}
	pl.units[lib] = u
	pl.declare(u, pl.prefixes.Prefix(lib), pl.opts.Profile.Namespace(lib))
	if pl.opts.Annotate {
		pl.declare(u, "ccts", xsd.CCTSDocumentationNamespace)
	}
	if pl.files[u.file] {
		return nil, fmt.Errorf("gen: two libraries produce the same schema file %q", u.file)
	}
	pl.files[u.file] = true
	pl.plan.units = append(pl.plan.units, u)
	return u, nil
}

// declare records an xmlns declaration the way Schema.DeclareNamespace
// would: redeclarations of the same binding are dropped here, while a
// conflicting redeclaration is left in place for the merge phase to
// reject with the exact DeclareNamespace error.
func (pl *planner) declare(u *Unit, prefix, uri string) {
	seen := pl.declared[u]
	if seen == nil {
		seen = map[string]string{}
		pl.declared[u] = seen
	}
	if bound, ok := seen[prefix]; ok && bound == uri {
		return
	}
	if _, ok := seen[prefix]; !ok {
		seen[prefix] = uri
	}
	u.decls = append(u.decls, xsd.Namespace{Prefix: prefix, URI: uri})
}

// ctxErr reports a cancelled plan walk as a wrapped context error.
func (pl *planner) ctxErr() error {
	if err := pl.opts.ctx().Err(); err != nil {
		return fmt.Errorf("gen: plan cancelled: %w", err)
	}
	return nil
}

// ensureLibrary plans the full schema of a library (all its elements)
// exactly once.
func (pl *planner) ensureLibrary(lib *core.Library) error {
	if err := pl.ctxErr(); err != nil {
		return err
	}
	u, err := pl.unitFor(lib)
	if err != nil {
		return err
	}
	if pl.done[lib] {
		return nil
	}
	pl.done[lib] = true
	pl.opts.status("processing %s %s", lib.Kind, lib.Name)
	switch lib.Kind {
	case core.KindBIELibrary:
		for _, abie := range lib.ABIEs {
			if err := pl.planABIETree(u, lib, abie); err != nil {
				return err
			}
		}
	case core.KindCDTLibrary:
		for _, cdt := range lib.CDTs {
			u.ops = append(u.ops, Op{cdt: cdt})
		}
	case core.KindQDTLibrary:
		for _, qdt := range lib.QDTs {
			if err := pl.planQDT(u, lib, qdt); err != nil {
				return err
			}
		}
	case core.KindENUMLibrary:
		for _, e := range lib.ENUMs {
			u.ops = append(u.ops, Op{enum: e})
		}
	default:
		return fmt.Errorf("gen: cannot generate %s %q as an import", lib.Kind, lib.Name)
	}
	return nil
}

// importLibrary plans the full generation of target and records the
// import in the using unit, mirroring the former on-the-fly recursion.
// The prefix is allocated before the target==usingLib shortcut — the
// allocation order is what numbers the auto prefixes (bie2 in Figure
// 6), so it must match the walk exactly.
func (pl *planner) importLibrary(u *Unit, usingLib, target *core.Library) error {
	prefix := pl.prefixes.Prefix(target)
	if target == usingLib {
		return nil
	}
	if err := pl.ensureLibrary(target); err != nil {
		return err
	}
	ns := pl.opts.Profile.Namespace(target)
	pl.declare(u, prefix, ns)
	if pl.imported[u] == nil {
		pl.imported[u] = map[string]bool{}
	}
	if pl.imported[u][ns] {
		return nil
	}
	pl.imported[u][ns] = true
	loc := pl.index.SchemaFile(target)
	if override, ok := pl.opts.Profile.Import(ns); ok {
		loc = override
	}
	u.imports = append(u.imports, xsd.Import{Namespace: ns, SchemaLocation: loc})
	u.importLibs = append(u.importLibs, target)
	return nil
}

// globalStyle reports whether an ASBIE of the given aggregation kind is
// declared globally and referenced.
func globalStyle(style ASBIEStyle, kind uml.AggregationKind) bool {
	if style == GlobalComposite {
		return kind == uml.AggregationComposite
	}
	return kind == uml.AggregationShared
}

// planABIETree records the complexType op for an ABIE in the unit of
// the library owning it, then recurses into the ASBIE targets ("the
// Add-In starts at the selected root element and pursues every outgoing
// aggregation and composition connector").
func (pl *planner) planABIETree(u *Unit, lib *core.Library, abie *core.ABIE) error {
	if err := pl.ctxErr(); err != nil {
		return err
	}
	if pl.emitted[abie] {
		return nil
	}
	if abie.Library() != lib {
		// Foreign ABIE: plan its whole library and import it; the
		// recursion continues there.
		return pl.importLibrary(u, lib, abie.Library())
	}
	pl.emitted[abie] = true
	u.ops = append(u.ops, Op{abie: abie})

	// BBIE data types first (Figure 6: "first the elements for the BBIEs
	// are defined") — resolving each type plans and imports its library.
	for _, bbie := range abie.BBIEs {
		dtLib := bbie.Type.DataTypeLibrary()
		if dtLib == nil {
			return fmt.Errorf("gen: BBIE %q of ABIE %q: data type %q has no owning library",
				bbie.Name, abie.Name, bbie.Type.TypeName())
		}
		if err := pl.importLibrary(u, lib, dtLib); err != nil {
			return fmt.Errorf("gen: BBIE %q of ABIE %q: %w", bbie.Name, abie.Name, err)
		}
	}

	// Then the ASBIEs emanating from the ABIE.
	for _, asbie := range abie.ASBIEs {
		if err := pl.planASBIE(u, lib, asbie); err != nil {
			return err
		}
	}
	return nil
}

func (pl *planner) planASBIE(u *Unit, lib *core.Library, asbie *core.ASBIE) error {
	target := asbie.Target
	targetLib := target.Library()
	if err := pl.importLibrary(u, lib, targetLib); err != nil {
		return fmt.Errorf("gen: ASBIE %q of ABIE %q: %w", asbie.Role, asbie.Owner().Name, err)
	}
	// Local targets recurse within this schema.
	if targetLib == lib {
		if err := pl.planABIETree(u, lib, target); err != nil {
			return err
		}
	}
	if globalStyle(pl.opts.Style, asbie.Kind) {
		// Figure 7: the element is declared globally once, then
		// referenced; the subtree's own globals land first because the
		// recursion above already recorded them.
		name := pl.index.ASBIEElementName(asbie)
		if pl.globalSeen[u] == nil {
			pl.globalSeen[u] = map[string]bool{}
		}
		if !pl.globalSeen[u][name] {
			pl.globalSeen[u][name] = true
			u.globals = append(u.globals, asbie)
		}
	}
	return nil
}

// planQDT resolves a QDT's enumeration imports and records its op; the
// unsupported-content error is caught here so the emit op is
// infallible.
func (pl *planner) planQDT(u *Unit, lib *core.Library, qdt *core.QDT) error {
	switch t := qdt.Content.Type.(type) {
	case *core.ENUM:
		if err := pl.importLibrary(u, lib, t.Library()); err != nil {
			return fmt.Errorf("gen: QDT %q: %w", qdt.Name, err)
		}
	case *core.PRIM:
		// Built-in base; nothing to import.
	default:
		return fmt.Errorf("gen: QDT %q has unsupported content type %T", qdt.Name, qdt.Content.Type)
	}
	for i := range qdt.Sups {
		sup := &qdt.Sups[i]
		if en, ok := sup.Type.(*core.ENUM); ok {
			if err := pl.importLibrary(u, lib, en.Library()); err != nil {
				return fmt.Errorf("gen: QDT %q SUP %q: %w", qdt.Name, sup.Name, err)
			}
		}
	}
	u.ops = append(u.ops, Op{qdt: qdt})
	return nil
}
