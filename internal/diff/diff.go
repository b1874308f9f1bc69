// Package diff compares two versions of a core components model and
// reports the changes per library — the information a harmonisation
// round needs before approving a revised library ("the standardization
// and harmonization process" of the paper's motivation). Elements are
// matched by name within libraries matched by name; member-level changes
// (added/removed BBIEs, retyped components, cardinality changes) are
// reported as modifications.
//
// Every Change additionally carries a machine-readable Breaking
// classification so automated gates (the schema repository's
// compatibility policy) can consume the report without parsing the
// human-readable details. A change is breaking when a consumer of the
// previously generated schemas could stop validating against the new
// ones: removed elements or members, retyped components, tightened
// cardinalities and removed enumeration literals. Purely additive
// changes (new elements, new members, widened cardinalities, new
// literals) are non-breaking.
package diff

import (
	"fmt"
	"sort"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
)

// Change kinds.
const (
	Added    = "added"
	Removed  = "removed"
	Modified = "modified"
)

// Change is one reported difference.
type Change struct {
	// Kind is Added, Removed or Modified.
	Kind string `json:"kind"`
	// Element is "ElementKind Library::Name" ("ABIE CommonAggregates::Address").
	Element string `json:"element"`
	// Details lists member-level modifications, empty for Added/Removed.
	Details []string `json:"details,omitempty"`
	// Breaking reports whether the change can invalidate instances or
	// consumers of the previously generated schemas: Removed changes
	// always are; Added changes never are; Modified changes are breaking
	// when any member-level detail is (removal, retyping, tightened
	// cardinality, removed literal).
	Breaking bool `json:"breaking"`
	// BreakingDetails is the subset of Details classified as breaking,
	// in Details order; empty when Breaking is false.
	BreakingDetails []string `json:"breakingDetails,omitempty"`
}

// String renders the change for reports.
func (c Change) String() string {
	if len(c.Details) == 0 {
		return c.Kind + " " + c.Element
	}
	return c.Kind + " " + c.Element + ": " + strings.Join(c.Details, "; ")
}

// Report collects all changes between two model versions.
type Report struct {
	Changes []Change
}

// Empty reports whether the models are equivalent under the comparison.
func (r *Report) Empty() bool { return len(r.Changes) == 0 }

// ByKind returns the changes of one kind.
func (r *Report) ByKind(kind string) []Change {
	var out []Change
	for _, c := range r.Changes {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// Breaking returns the changes classified as breaking; an empty result
// means the new model is a backward-compatible revision of the old one.
func (r *Report) Breaking() []Change {
	var out []Change
	for _, c := range r.Changes {
		if c.Breaking {
			out = append(out, c)
		}
	}
	return out
}

// detail is one member-level modification with its classification.
type detail struct {
	text     string
	breaking bool
}

// brk formats a breaking detail.
func brk(format string, args ...any) detail {
	return detail{text: fmt.Sprintf(format, args...), breaking: true}
}

// add formats an additive (non-breaking) detail.
func add(format string, args ...any) detail {
	return detail{text: fmt.Sprintf(format, args...)}
}

// cardDetail classifies a cardinality change on member what: raising the
// lower bound or lowering the upper bound excludes instances the old
// schema accepted (breaking); pure widening is additive.
func cardDetail(what string, oldCard, newCard core.Cardinality) detail {
	text := fmt.Sprintf("%s cardinality %s -> %s", what, oldCard, newCard)
	return detail{text: text, breaking: tightens(oldCard, newCard)}
}

// tightens reports whether newCard permits fewer occurrences than
// oldCard in either direction.
func tightens(oldCard, newCard core.Cardinality) bool {
	if newCard.Lower > oldCard.Lower {
		return true
	}
	if oldCard.Upper == core.Unbounded {
		return newCard.Upper != core.Unbounded
	}
	return newCard.Upper != core.Unbounded && newCard.Upper < oldCard.Upper
}

func (r *Report) add(kind, element string, details ...detail) {
	c := Change{Kind: kind, Element: element, Breaking: kind == Removed}
	for _, d := range details {
		c.Details = append(c.Details, d.text)
		if d.breaking {
			c.Breaking = true
			c.BreakingDetails = append(c.BreakingDetails, d.text)
		}
	}
	r.Changes = append(r.Changes, c)
}

// Compare diffs two models (old → new).
func Compare(oldModel, newModel *core.Model) *Report {
	r := &Report{}
	oldLibs := libMap(oldModel)
	newLibs := libMap(newModel)

	for _, name := range sortedKeys(oldLibs) {
		newLib, ok := newLibs[name]
		if !ok {
			r.add(Removed, "Library "+name)
			continue
		}
		compareLibrary(r, oldLibs[name], newLib)
	}
	for _, name := range sortedKeys(newLibs) {
		if _, ok := oldLibs[name]; !ok {
			r.add(Added, "Library "+name)
		}
	}
	return r
}

func libMap(m *core.Model) map[string]*core.Library {
	out := map[string]*core.Library{}
	for _, lib := range m.Libraries() {
		out[lib.Name] = lib
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func compareLibrary(r *Report, oldLib, newLib *core.Library) {
	prefix := oldLib.Name + "::"
	var details []detail
	if oldLib.BaseURN != newLib.BaseURN {
		// The baseURN is the generated target namespace; changing it
		// breaks every reference into the library's schema.
		details = append(details, brk("baseURN %q -> %q", oldLib.BaseURN, newLib.BaseURN))
	}
	if oldLib.Version != newLib.Version {
		// Version bumps are the expected shape of a revision.
		details = append(details, add("version %q -> %q", oldLib.Version, newLib.Version))
	}
	if oldLib.Kind != newLib.Kind {
		details = append(details, brk("kind %s -> %s", oldLib.Kind, newLib.Kind))
	}
	if len(details) > 0 {
		r.add(Modified, "Library "+oldLib.Name, details...)
	}

	compareNamed(r, "ACC", prefix, accNames(oldLib), accNames(newLib), func(name string) []detail {
		return diffACC(oldLib.FindACC(name), newLib.FindACC(name))
	})
	compareNamed(r, "ABIE", prefix, abieNames(oldLib), abieNames(newLib), func(name string) []detail {
		return diffABIE(oldLib.FindABIE(name), newLib.FindABIE(name))
	})
	compareNamed(r, "CDT", prefix, cdtNames(oldLib), cdtNames(newLib), func(name string) []detail {
		return diffDataType(findCDT(oldLib, name), findCDT(newLib, name))
	})
	compareNamed(r, "QDT", prefix, qdtNames(oldLib), qdtNames(newLib), func(name string) []detail {
		return diffQDT(findQDT(oldLib, name), findQDT(newLib, name))
	})
	compareNamed(r, "ENUM", prefix, enumNames(oldLib), enumNames(newLib), func(name string) []detail {
		return diffENUM(findENUM(oldLib, name), findENUM(newLib, name))
	})
	compareNamed(r, "PRIM", prefix, primNames(oldLib), primNames(newLib), func(string) []detail {
		return nil
	})
}

// compareNamed applies the add/remove/modify pattern to one element
// kind.
func compareNamed(r *Report, kind, prefix string, oldNames, newNames []string, detailOf func(name string) []detail) {
	oldSet := toSet(oldNames)
	newSet := toSet(newNames)
	for _, name := range oldNames {
		if !newSet[name] {
			r.add(Removed, kind+" "+prefix+name)
			continue
		}
		if details := detailOf(name); len(details) > 0 {
			r.add(Modified, kind+" "+prefix+name, details...)
		}
	}
	for _, name := range newNames {
		if !oldSet[name] {
			r.add(Added, kind+" "+prefix+name)
		}
	}
}

func toSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

func accNames(lib *core.Library) []string {
	out := make([]string, len(lib.ACCs))
	for i, e := range lib.ACCs {
		out[i] = e.Name
	}
	return out
}

func abieNames(lib *core.Library) []string {
	out := make([]string, len(lib.ABIEs))
	for i, e := range lib.ABIEs {
		out[i] = e.Name
	}
	return out
}

func cdtNames(lib *core.Library) []string {
	out := make([]string, len(lib.CDTs))
	for i, e := range lib.CDTs {
		out[i] = e.Name
	}
	return out
}

func qdtNames(lib *core.Library) []string {
	out := make([]string, len(lib.QDTs))
	for i, e := range lib.QDTs {
		out[i] = e.Name
	}
	return out
}

func enumNames(lib *core.Library) []string {
	out := make([]string, len(lib.ENUMs))
	for i, e := range lib.ENUMs {
		out[i] = e.Name
	}
	return out
}

func primNames(lib *core.Library) []string {
	out := make([]string, len(lib.PRIMs))
	for i, e := range lib.PRIMs {
		out[i] = e.Name
	}
	return out
}

func findCDT(lib *core.Library, name string) *core.CDT {
	for _, d := range lib.CDTs {
		if d.Name == name {
			return d
		}
	}
	return nil
}

func findQDT(lib *core.Library, name string) *core.QDT {
	for _, d := range lib.QDTs {
		if d.Name == name {
			return d
		}
	}
	return nil
}

func findENUM(lib *core.Library, name string) *core.ENUM {
	for _, e := range lib.ENUMs {
		if e.Name == name {
			return e
		}
	}
	return nil
}

func diffACC(oldACC, newACC *core.ACC) []detail {
	var out []detail
	oldBCCs := map[string]*core.BCC{}
	for _, b := range oldACC.BCCs {
		oldBCCs[b.Name] = b
	}
	newBCCs := map[string]*core.BCC{}
	for _, b := range newACC.BCCs {
		newBCCs[b.Name] = b
	}
	for _, name := range sortedKeys(oldBCCs) {
		nb, ok := newBCCs[name]
		if !ok {
			out = append(out, brk("BCC %s removed", name))
			continue
		}
		ob := oldBCCs[name]
		if ob.Type.Name != nb.Type.Name {
			out = append(out, brk("BCC %s type %s -> %s", name, ob.Type.Name, nb.Type.Name))
		}
		if ob.Card != nb.Card {
			out = append(out, cardDetail("BCC "+name, ob.Card, nb.Card))
		}
	}
	for _, name := range sortedKeys(newBCCs) {
		if _, ok := oldBCCs[name]; !ok {
			out = append(out, add("BCC %s added", name))
		}
	}
	out = append(out, diffASCCs(oldACC, newACC)...)
	return out
}

func diffASCCs(oldACC, newACC *core.ACC) []detail {
	key := func(s *core.ASCC) string { return s.Role + ">" + s.Target.Name }
	oldSet := map[string]*core.ASCC{}
	for _, s := range oldACC.ASCCs {
		oldSet[key(s)] = s
	}
	newSet := map[string]*core.ASCC{}
	for _, s := range newACC.ASCCs {
		newSet[key(s)] = s
	}
	var out []detail
	for _, k := range sortedKeys(oldSet) {
		ns, ok := newSet[k]
		if !ok {
			out = append(out, brk("ASCC %s removed", k))
			continue
		}
		if oldSet[k].Card != ns.Card {
			out = append(out, cardDetail("ASCC "+k, oldSet[k].Card, ns.Card))
		}
	}
	for _, k := range sortedKeys(newSet) {
		if _, ok := oldSet[k]; !ok {
			out = append(out, add("ASCC %s added", k))
		}
	}
	return out
}

func diffABIE(oldABIE, newABIE *core.ABIE) []detail {
	var out []detail
	if oldBase, newBase := baseName(oldABIE), baseName(newABIE); oldBase != newBase {
		out = append(out, brk("basedOn %s -> %s", oldBase, newBase))
	}
	if oldABIE.Context().String() != newABIE.Context().String() {
		// Context describes the business situation the BIE is derived
		// for; it does not change the generated schema shape.
		out = append(out, add("context %s -> %s", oldABIE.Context(), newABIE.Context()))
	}
	oldBBIEs := map[string]*core.BBIE{}
	for _, b := range oldABIE.BBIEs {
		oldBBIEs[b.Name] = b
	}
	newBBIEs := map[string]*core.BBIE{}
	for _, b := range newABIE.BBIEs {
		newBBIEs[b.Name] = b
	}
	for _, name := range sortedKeys(oldBBIEs) {
		nb, ok := newBBIEs[name]
		if !ok {
			out = append(out, brk("BBIE %s removed", name))
			continue
		}
		ob := oldBBIEs[name]
		if ob.Type.TypeName() != nb.Type.TypeName() {
			out = append(out, brk("BBIE %s type %s -> %s", name, ob.Type.TypeName(), nb.Type.TypeName()))
		}
		if ob.Card != nb.Card {
			out = append(out, cardDetail("BBIE "+name, ob.Card, nb.Card))
		}
	}
	for _, name := range sortedKeys(newBBIEs) {
		if _, ok := oldBBIEs[name]; !ok {
			out = append(out, add("BBIE %s added", name))
		}
	}
	key := func(s *core.ASBIE) string { return s.Role + ">" + s.Target.Name }
	oldAS := map[string]*core.ASBIE{}
	for _, s := range oldABIE.ASBIEs {
		oldAS[key(s)] = s
	}
	newAS := map[string]*core.ASBIE{}
	for _, s := range newABIE.ASBIEs {
		newAS[key(s)] = s
	}
	for _, k := range sortedKeys(oldAS) {
		ns, ok := newAS[k]
		if !ok {
			out = append(out, brk("ASBIE %s removed", k))
			continue
		}
		if oldAS[k].Card != ns.Card {
			out = append(out, cardDetail("ASBIE "+k, oldAS[k].Card, ns.Card))
		}
	}
	for _, k := range sortedKeys(newAS) {
		if _, ok := oldAS[k]; !ok {
			out = append(out, add("ASBIE %s added", k))
		}
	}
	return out
}

func baseName(a *core.ABIE) string {
	if a.BasedOn == nil {
		return "(none)"
	}
	return a.BasedOn.Name
}

func diffDataType(oldCDT, newCDT *core.CDT) []detail {
	var out []detail
	if oldCDT.Content.Type.TypeName() != newCDT.Content.Type.TypeName() {
		out = append(out, brk("content %s -> %s",
			oldCDT.Content.Type.TypeName(), newCDT.Content.Type.TypeName()))
	}
	out = append(out, diffSups(supsOf(oldCDT.Sups), supsOf(newCDT.Sups))...)
	return out
}

func diffQDT(oldQDT, newQDT *core.QDT) []detail {
	var out []detail
	if oldQDT.Content.Type.TypeName() != newQDT.Content.Type.TypeName() {
		out = append(out, brk("content %s -> %s",
			oldQDT.Content.Type.TypeName(), newQDT.Content.Type.TypeName()))
	}
	oldBase, newBase := "", ""
	if oldQDT.BasedOn != nil {
		oldBase = oldQDT.BasedOn.Name
	}
	if newQDT.BasedOn != nil {
		newBase = newQDT.BasedOn.Name
	}
	if oldBase != newBase {
		out = append(out, brk("basedOn %s -> %s", oldBase, newBase))
	}
	out = append(out, diffSups(supsOf(oldQDT.Sups), supsOf(newQDT.Sups))...)
	return out
}

func supsOf(sups []core.SupplementaryComponent) map[string]core.SupplementaryComponent {
	out := make(map[string]core.SupplementaryComponent, len(sups))
	for _, s := range sups {
		out[s.Name] = s
	}
	return out
}

func diffSups(oldSups, newSups map[string]core.SupplementaryComponent) []detail {
	var out []detail
	for _, name := range sortedKeys(oldSups) {
		ns, ok := newSups[name]
		if !ok {
			out = append(out, brk("SUP %s removed", name))
			continue
		}
		os := oldSups[name]
		if os.Card != ns.Card {
			out = append(out, cardDetail("SUP "+name, os.Card, ns.Card))
		}
	}
	for _, name := range sortedKeys(newSups) {
		if _, ok := oldSups[name]; !ok {
			out = append(out, add("SUP %s added", name))
		}
	}
	return out
}

func diffENUM(oldENUM, newENUM *core.ENUM) []detail {
	oldLits := toSet(oldENUM.LiteralNames())
	newLits := toSet(newENUM.LiteralNames())
	var out []detail
	for _, name := range sortedKeys(oldLits) {
		if !newLits[name] {
			out = append(out, brk("literal %s removed", name))
		}
	}
	for _, name := range sortedKeys(newLits) {
		if !oldLits[name] {
			out = append(out, add("literal %s added", name))
		}
	}
	return out
}
