// Package validate implements the model validation engine the paper
// names as its top-priority future work: "Current effort is therefore
// spent on a validation engine, allowing to check the syntactical and
// semantical correctness of a core component model." It combines
// semantic checks over the typed CCTS model (derivation legality,
// cardinality narrowing, namespace rules, reference cycles) with the
// profile's OCL constraints evaluated over the UML representation.
package validate

import (
	"fmt"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmi"
)

// Severity ranks findings.
type Severity int

const (
	// Error findings make the model unusable for generation.
	Error Severity = iota
	// Warning findings indicate likely mistakes that do not block
	// generation.
	Warning
)

// String names the severity.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// severityText holds each severity's wire name, so that encoding a
// finding allocates nothing for its severity.
var severityText = [...][]byte{Error: []byte("error"), Warning: []byte("warning")}

// MarshalText writes the severity as String names it. The returned
// slice is shared; callers must not modify it.
func (s Severity) MarshalText() ([]byte, error) {
	if s == Warning {
		return severityText[Warning], nil
	}
	return severityText[Error], nil
}

// UnmarshalText reads "error" or "warning" and rejects any other name.
func (s *Severity) UnmarshalText(text []byte) error {
	switch string(text) {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	default:
		return fmt.Errorf("validate: unknown severity %q", text)
	}
	return nil
}

// Finding is one validation result.
type Finding struct {
	// Rule is the stable rule identifier (semantic rules are prefixed
	// "SEM-", profile constraint IDs pass through; import diagnostics
	// use "XMI-").
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// Element locates the finding.
	Element string `json:"element,omitempty"`
	Message string `json:"message"`
	// Line and Col locate the finding in a source document when the
	// finding came from an import (1-based; zero when the finding has no
	// source position, e.g. semantic rules over an in-memory model).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
}

// ImportReport turns the diagnostics of a lenient XMI import into
// error findings that keep their source positions.
func ImportReport(diags []xmi.Diagnostic) *Report {
	report := &Report{}
	for _, d := range diags {
		report.Findings = append(report.Findings, Finding{
			Rule:     d.Rule,
			Severity: Error,
			Element:  d.Element,
			Message:  d.Message,
			Line:     d.Line,
			Col:      d.Col,
		})
	}
	return report
}

// String renders the finding for reports.
func (f Finding) String() string {
	if f.Line > 0 {
		return fmt.Sprintf("%s [%s] %s: %s (at %d:%d)", f.Severity, f.Rule, f.Element, f.Message, f.Line, f.Col)
	}
	return fmt.Sprintf("%s [%s] %s: %s", f.Severity, f.Rule, f.Element, f.Message)
}

// Report aggregates findings of one validation run.
type Report struct {
	Findings []Finding
}

func (r *Report) add(rule string, sev Severity, element, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Rule: rule, Severity: sev, Element: element,
		Message: fmt.Sprintf(format, args...),
	})
}

// HasErrors reports whether any finding has Error severity.
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

// Model runs the semantic rule set over a typed CCTS model.
func Model(m *core.Model) *Report { return ModelIndexed(m, nil) }

// ModelIndexed runs the semantic rule set reusing a resolve-phase model
// index (duplicate-name detection reads the index's precomputed symbol
// tables instead of rescanning every library). A nil index resolves one
// internally; callers that go on to generate schemas should build the
// index once and share it.
func ModelIndexed(m *core.Model, ix *core.ModelIndex) *Report {
	if ix == nil {
		ix = core.NewModelIndex(m)
	}
	r := &Report{}
	checkNamespaces(r, m)
	checkLibraries(r, m, ix)
	checkDerivations(r, m)
	checkCycles(r, m)
	return r
}

// UML evaluates the profile's OCL constraints over a UML model and
// converts the violations to findings.
func UML(um *uml.Model) *Report {
	r := &Report{}
	for _, v := range profile.EvaluateConstraints(um) {
		msg := v.Constraint.Description
		if v.Err != nil {
			msg = fmt.Sprintf("%s (evaluation error: %v)", msg, v.Err)
		}
		r.add(v.Constraint.ID, Error, v.Element, "%s", msg)
	}
	return r
}

// All validates a typed model semantically and, via its rendered UML
// representation, against the profile's OCL constraints.
func All(m *core.Model) *Report { return AllIndexed(m, nil) }

// AllIndexed is All reusing a resolve-phase model index; nil resolves
// one internally.
func AllIndexed(m *core.Model, ix *core.ModelIndex) *Report {
	r := ModelIndexed(m, ix)
	r.Findings = append(r.Findings, UML(profile.Render(m)).Findings...)
	return r
}

// checkNamespaces enforces the namespace tagged-value rules the
// generator depends on.
func checkNamespaces(r *Report, m *core.Model) {
	seen := map[string]string{}
	for _, lib := range m.Libraries() {
		if lib.BaseURN == "" {
			r.add("SEM-NS-1", Error, lib.Name, "library has no baseURN; the generator cannot determine its target namespace")
			continue
		}
		if other, dup := seen[lib.BaseURN]; dup {
			r.add("SEM-NS-2", Error, lib.Name, "baseURN %q is already used by library %q", lib.BaseURN, other)
		}
		seen[lib.BaseURN] = lib.Name
		if lib.Version == "" {
			r.add("SEM-NS-3", Warning, lib.Name, "library has no version; generated schema file names will not be versioned")
		}
	}
}

// checkLibraries enforces name uniqueness and emptiness rules.
func checkLibraries(r *Report, m *core.Model, ix *core.ModelIndex) {
	libNames := map[string]bool{}
	for _, lib := range m.Libraries() {
		if libNames[lib.Name] {
			r.add("SEM-LIB-1", Error, lib.Name, "duplicate library name")
		}
		libNames[lib.Name] = true
		if lib.ElementCount() == 0 {
			r.add("SEM-LIB-2", Warning, lib.Name, "library is empty")
		}
		if lib.Kind == core.KindDOCLibrary && len(lib.ABIEs) == 0 {
			r.add("SEM-LIB-3", Error, lib.Name, "DOCLibrary defines no ABIE; no root element can be selected")
		}
		for _, n := range duplicateNames(lib, ix) {
			r.add("SEM-LIB-4", Error, lib.Name, "duplicate element name %q in library", n)
		}
		for _, e := range lib.ENUMs {
			if len(e.Literals) == 0 {
				r.add("SEM-ENUM-1", Error, lib.Name+"::"+e.Name, "enumeration has no literals")
			}
			lits := map[string]bool{}
			for _, l := range e.Literals {
				if lits[l.Name] {
					r.add("SEM-ENUM-2", Error, lib.Name+"::"+e.Name, "duplicate literal %q", l.Name)
				}
				lits[l.Name] = true
			}
		}
	}
}

// duplicateNames returns every duplicate element-name occurrence beyond
// the first, in declaration order — from the index's symbol table when
// the library was resolved, by scanning otherwise.
func duplicateNames(lib *core.Library, ix *core.ModelIndex) []string {
	if li := ix.Library(lib); li != nil {
		return li.Duplicates()
	}
	var dups []string
	seen := map[string]bool{}
	for _, n := range elementNames(lib) {
		if seen[n] {
			dups = append(dups, n)
		}
		seen[n] = true
	}
	return dups
}

func elementNames(lib *core.Library) []string {
	var out []string
	for _, e := range lib.ACCs {
		out = append(out, e.Name)
	}
	for _, e := range lib.ABIEs {
		out = append(out, e.Name)
	}
	for _, e := range lib.CDTs {
		out = append(out, e.Name)
	}
	for _, e := range lib.QDTs {
		out = append(out, e.Name)
	}
	for _, e := range lib.ENUMs {
		out = append(out, e.Name)
	}
	for _, e := range lib.PRIMs {
		out = append(out, e.Name)
	}
	return out
}

// checkDerivations re-verifies derivation-by-restriction for models not
// built through the checked Derive* APIs (hand-assembled or imported from
// XMI).
func checkDerivations(r *Report, m *core.Model) {
	for _, lib := range m.Libraries() {
		for _, qdt := range lib.QDTs {
			if err := qdt.CheckRestriction(); err != nil {
				r.add("SEM-QDT-1", Error, lib.Name+"::"+qdt.Name, "%v", err)
			}
		}
		for _, abie := range lib.ABIEs {
			checkABIE(r, lib, abie)
		}
	}
}

func checkABIE(r *Report, lib *core.Library, abie *core.ABIE) {
	element := lib.Name + "::" + abie.Name
	if abie.BasedOn == nil {
		r.add("SEM-ABIE-1", Error, element, "ABIE has no underlying ACC")
		return
	}
	for _, bbie := range abie.BBIEs {
		if bbie.BasedOn == nil {
			r.add("SEM-BBIE-1", Error, element, "BBIE %q has no underlying BCC", bbie.Name)
			continue
		}
		if bbie.BasedOn.Owner() != abie.BasedOn {
			r.add("SEM-BBIE-2", Error, element,
				"BBIE %q restricts a BCC of ACC %q, not of the underlying ACC %q",
				bbie.Name, nameOf(bbie.BasedOn.Owner()), abie.BasedOn.Name)
		}
		switch t := bbie.Type.(type) {
		case *core.CDT:
			if t != bbie.BasedOn.Type {
				r.add("SEM-BBIE-3", Error, element,
					"BBIE %q uses CDT %q but the BCC uses %q", bbie.Name, nameOf(t), nameOf(bbie.BasedOn.Type))
			}
		case *core.QDT:
			if t.BasedOn != bbie.BasedOn.Type {
				r.add("SEM-BBIE-3", Error, element,
					"BBIE %q uses QDT %q based on %q, but the BCC uses %q",
					bbie.Name, t.Name, nameOf(t.BasedOn), nameOf(bbie.BasedOn.Type))
			}
		default:
			r.add("SEM-BBIE-4", Error, element, "BBIE %q has no data type", bbie.Name)
		}
	}
	for _, asbie := range abie.ASBIEs {
		if asbie.BasedOn == nil {
			r.add("SEM-ASBIE-1", Error, element, "ASBIE %q has no underlying ASCC", asbie.Role)
			continue
		}
		if asbie.BasedOn.Owner() != abie.BasedOn {
			r.add("SEM-ASBIE-2", Error, element,
				"ASBIE %q restricts an ASCC of ACC %q, not of the underlying ACC %q",
				asbie.Role, nameOf(asbie.BasedOn.Owner()), abie.BasedOn.Name)
		}
		if asbie.Target == nil {
			r.add("SEM-ASBIE-3", Error, element, "ASBIE %q has no target ABIE", asbie.Role)
			continue
		}
		if asbie.Target.BasedOn != asbie.BasedOn.Target {
			r.add("SEM-ASBIE-4", Error, element,
				"ASBIE %q targets ABIE %q (based on %q) but the ASCC points at ACC %q",
				asbie.Role, asbie.Target.Name, nameOf(asbie.Target.BasedOn), nameOf(asbie.BasedOn.Target))
		}
	}
}

// nameOf names a linked element in a finding message: "" when the link
// is missing, so a malformed model is reported rather than dereferenced.
func nameOf(e any) string {
	switch e := e.(type) {
	case *core.ACC:
		if e != nil {
			return e.Name
		}
	case *core.CDT:
		if e != nil {
			return e.Name
		}
	}
	return ""
}

// checkCycles finds ASBIE reference cycles. A cycle in which every edge
// requires at least one occurrence can never be instantiated (SEM-CYC-1,
// error); optional cycles merely produce recursive schemas (SEM-CYC-2,
// warning).
func checkCycles(r *Report, m *core.Model) {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[*core.ABIE]int{}
	var stack []*core.ABIE

	var visit func(a *core.ABIE)
	visit = func(a *core.ABIE) {
		state[a] = inStack
		stack = append(stack, a)
		for _, asbie := range a.ASBIEs {
			t := asbie.Target
			if t == nil {
				continue
			}
			switch state[t] {
			case unvisited:
				visit(t)
			case inStack:
				// Found a cycle: stack from t to a, closing edge asbie.
				mandatory := asbie.Card.Lower >= 1
				names := []string{t.Name}
				for i := len(stack) - 1; i >= 0 && stack[i] != t; i-- {
					names = append(names, stack[i].Name)
				}
				if mandatory && allEdgesMandatory(stack, t) {
					r.add("SEM-CYC-1", Error, a.Name,
						"mandatory ASBIE cycle involving %v can never be instantiated", names)
				} else {
					r.add("SEM-CYC-2", Warning, a.Name,
						"recursive ASBIE cycle involving %v produces a recursive schema", names)
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[a] = done
	}

	for _, lib := range m.Libraries() {
		for _, abie := range lib.ABIEs {
			if state[abie] == unvisited {
				visit(abie)
			}
		}
	}
}

// allEdgesMandatory reports whether every ASBIE along the current cycle
// segment of the stack has a mandatory cardinality.
func allEdgesMandatory(stack []*core.ABIE, head *core.ABIE) bool {
	// Walk stack from head to top; each consecutive pair must have a
	// mandatory connecting ASBIE.
	start := -1
	for i, a := range stack {
		if a == head {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	for i := start; i+1 < len(stack); i++ {
		if !hasMandatoryEdge(stack[i], stack[i+1]) {
			return false
		}
	}
	return true
}

func hasMandatoryEdge(from, to *core.ABIE) bool {
	for _, e := range from.ASBIEs {
		if e.Target == to && e.Card.Lower >= 1 {
			return true
		}
	}
	return false
}
