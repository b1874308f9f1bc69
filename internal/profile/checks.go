package profile

import (
	"fmt"
	"slices"

	"github.com/go-ccts/ccts/internal/ocl"
	"github.com/go-ccts/ccts/internal/uml"
)

// The built-in rows of constraintTable run as the Go checks below, over
// a uml.Index built in one walk of the model. Each row's OCL expression
// stays the normative statement of the rule: the checks must report
// exactly what the interpreter reports for it, down to the order of the
// violations and the text of an evaluation error, and a differential
// test holds them to that. Rules added by callers (extras) always go
// through the interpreter, even when they copy a built-in row.
//
// Where OCL yields null, a check reads the empty stereotype: for an
// attribute type that does not resolve, and for a dependency's client or
// supplier that is not a class or enumeration. Every stereotype a check
// compares against is non-empty, so null never matches, as in OCL.

// compiledChecks holds the Go check of every built-in row, by ID. Each
// value is a func(*uml.Index, T) (bool, error), with T the element type
// of the row's Target; it reports whether the element satisfies the row,
// or the error the interpreter raises for it.
var compiledChecks = map[string]any{
	"LIB-1": func(_ *uml.Index, p *uml.Package) (bool, error) {
		if !p.Tags.Has(TagBaseURN) {
			return false, errNoBaseURN
		}
		return p.Tags.Get(TagBaseURN) != "", nil
	},
	"LIB-2":  func(_ *uml.Index, p *uml.Package) (bool, error) { return p.Name != "", nil },
	"CCL-1":  classesAre(StACC),
	"CCL-2":  associationsAre(StASCC),
	"CCL-3":  func(_ *uml.Index, p *uml.Package) (bool, error) { return len(p.Enumerations) == 0, nil },
	"BIEL-1": classesAre(StABIE),
	"BIEL-2": associationsAre(StASBIE),
	"CDTL-1": classesAre(StCDT),
	"QDTL-1": classesAre(StQDT),
	"ENUML-1": func(_ *uml.Index, p *uml.Package) (bool, error) {
		if len(p.Classes) > 0 {
			return false, nil
		}
		for _, e := range p.Enumerations {
			if e.Stereotype != StENUM {
				return false, nil
			}
		}
		return true, nil
	},
	"PRIML-1": classesAre(StPRIM),
	"BUSL-1": func(_ *uml.Index, p *uml.Package) (bool, error) {
		for _, q := range p.Packages {
			if q.Stereotype != StBusinessLibrary && !IsLibraryStereotype(q.Stereotype) {
				return false, nil
			}
		}
		return true, nil
	},

	"ACC-1":  attributesAre(StBCC),
	"ACC-2":  basedOnNothing,
	"BCC-1":  attributesTypedBy(StCDT),
	"ASCC-1": endsAre(StACC),
	"ASCC-2": hasRole,

	"ABIE-1":  attributesAre(StBBIE),
	"ABIE-2":  basedOnOne(StACC),
	"BBIE-1":  attributesTypedBy(StCDT, StQDT),
	"ASBIE-1": endsAre(StABIE),
	"ASBIE-2": hasRole,

	"CDT-1":  oneContentComponent,
	"CDT-2":  onlyComponents,
	"CDT-3":  basedOnNothing,
	"CDT-4":  attributesTypedBy(StPRIM),
	"QDT-1":  oneContentComponent,
	"QDT-2":  onlyComponents,
	"QDT-3":  basedOnOne(StCDT),
	"QDT-4":  attributesTypedBy(StPRIM, StENUM),
	"PRIM-1": func(_ *uml.Index, c *uml.Class) (bool, error) { return len(c.Attributes) == 0, nil },
	"ENUM-1": func(_ *uml.Index, e *uml.Enumeration) (bool, error) { return len(e.Literals) > 0, nil },
	"ENUM-2": func(_ *uml.Index, e *uml.Enumeration) (bool, error) {
		for i, l := range e.Literals {
			for _, k := range e.Literals[:i] {
				if k.Name == l.Name {
					return false, nil
				}
			}
		}
		return true, nil
	},

	"DEP-1": func(_ *uml.Index, d *uml.Dependency) (bool, error) {
		client, supplier := stereotypeOf(d.Client), stereotypeOf(d.Supplier)
		return client == StABIE && supplier == StACC || client == StQDT && supplier == StCDT, nil
	},
}

// errNoBaseURN is the interpreter's error for LIB-1 on a package without
// a baseURN tagged value; reports show it as the evaluation error.
var errNoBaseURN = fmt.Errorf("ocl: Package has no property %q", TagBaseURN)

func classesAre(st string) func(*uml.Index, *uml.Package) (bool, error) {
	return func(_ *uml.Index, p *uml.Package) (bool, error) {
		for _, c := range p.Classes {
			if c.Stereotype != st {
				return false, nil
			}
		}
		return true, nil
	}
}

func associationsAre(st string) func(*uml.Index, *uml.Package) (bool, error) {
	return func(_ *uml.Index, p *uml.Package) (bool, error) {
		for _, a := range p.Associations {
			if a.Stereotype != st {
				return false, nil
			}
		}
		return true, nil
	}
}

func attributesAre(st string) func(*uml.Index, *uml.Class) (bool, error) {
	return func(_ *uml.Index, c *uml.Class) (bool, error) {
		for _, a := range c.Attributes {
			if a.Stereotype != st {
				return false, nil
			}
		}
		return true, nil
	}
}

// attributesTypedBy checks that every attribute type resolves to a
// classifier of one of the stereotypes.
func attributesTypedBy(sts ...string) func(*uml.Index, *uml.Class) (bool, error) {
	return func(ix *uml.Index, c *uml.Class) (bool, error) {
		for _, a := range c.Attributes {
			t, _ := ix.ResolveType(a.TypeName)
			if !slices.Contains(sts, stereotypeOf(t)) {
				return false, nil
			}
		}
		return true, nil
	}
}

func oneContentComponent(_ *uml.Index, c *uml.Class) (bool, error) {
	n := 0
	for _, a := range c.Attributes {
		if a.Stereotype == StCON {
			n++
		}
	}
	return n == 1, nil
}

func onlyComponents(_ *uml.Index, c *uml.Class) (bool, error) {
	for _, a := range c.Attributes {
		if a.Stereotype != StCON && a.Stereotype != StSUP {
			return false, nil
		}
	}
	return true, nil
}

// basedOnNothing checks that the class has no basedOn dependency.
func basedOnNothing(ix *uml.Index, c *uml.Class) (bool, error) {
	for _, d := range ix.DependenciesFrom(c) {
		if d.Stereotype == StBasedOn {
			return false, nil
		}
	}
	return true, nil
}

// basedOnOne checks that the class has exactly one basedOn dependency
// and that its supplier has stereotype st. Like OCL's basedOn->size(), the
// count includes a dependency whose supplier is null.
func basedOnOne(st string) func(*uml.Index, *uml.Class) (bool, error) {
	return func(ix *uml.Index, c *uml.Class) (bool, error) {
		n, ok := 0, true
		for _, d := range ix.DependenciesFrom(c) {
			if d.Stereotype == StBasedOn {
				n++
				ok = ok && stereotypeOf(d.Supplier) == st
			}
		}
		return n == 1 && ok, nil
	}
}

func endsAre(st string) func(*uml.Index, *uml.Association) (bool, error) {
	return func(_ *uml.Index, a *uml.Association) (bool, error) {
		return a.Source != nil && a.Source.Stereotype == st &&
			a.Target != nil && a.Target.Stereotype == st, nil
	}
}

func hasRole(_ *uml.Index, a *uml.Association) (bool, error) { return a.TargetRole != "", nil }

// stereotypeOf is the stereotype a classifier shows to OCL: "" for
// anything adaptClassifier makes null.
func stereotypeOf(c uml.Classifier) string {
	switch t := c.(type) {
	case *uml.Class:
		if t != nil {
			return t.Stereotype
		}
	case *uml.Enumeration:
		if t != nil {
			return t.Stereotype
		}
	}
	return ""
}

// rule is a built-in row with its compiled check.
type rule[T any] struct {
	c     *Constraint
	check func(*uml.Index, T) (bool, error)
}

// ruleSet is one target's built-in rows by stereotype, in table order,
// selected once at initialisation.
type ruleSet[T any] struct {
	target       Target
	stereotype   func(T) string
	byStereotype map[string][]rule[T]
	// label names a violating element for reports; p is the package the
	// walk found it in.
	label func(p *uml.Package, e T) string
}

var (
	packageRules = &ruleSet[*uml.Package]{
		target:     TargetPackage,
		stereotype: func(p *uml.Package) string { return p.Stereotype },
		label:      func(p, _ *uml.Package) string { return p.QualifiedName() },
	}
	classRules = &ruleSet[*uml.Class]{
		target:     TargetClass,
		stereotype: func(c *uml.Class) string { return c.Stereotype },
		label:      func(_ *uml.Package, c *uml.Class) string { return c.QualifiedName() },
	}
	associationRules = &ruleSet[*uml.Association]{
		target:     TargetAssociation,
		stereotype: func(a *uml.Association) string { return a.Stereotype },
		label: func(p *uml.Package, a *uml.Association) string {
			return p.QualifiedName() + "::<association " + a.TargetRole + ">"
		},
	}
	dependencyRules = &ruleSet[*uml.Dependency]{
		target:     TargetDependency,
		stereotype: func(d *uml.Dependency) string { return d.Stereotype },
		label:      func(p *uml.Package, _ *uml.Dependency) string { return p.QualifiedName() + "::<basedOn>" },
	}
	enumerationRules = &ruleSet[*uml.Enumeration]{
		target:     TargetEnumeration,
		stereotype: func(e *uml.Enumeration) string { return e.Stereotype },
		label:      func(_ *uml.Package, e *uml.Enumeration) string { return e.QualifiedName() },
	}
)

func init() {
	for i := range constraintTable {
		c := &constraintTable[i]
		switch c.Target {
		case TargetPackage:
			packageRules.add(c)
		case TargetClass:
			classRules.add(c)
		case TargetAssociation:
			associationRules.add(c)
		case TargetDependency:
			dependencyRules.add(c)
		case TargetEnumeration:
			enumerationRules.add(c)
		}
	}
}

// add files a built-in row under each of its stereotypes. A row without
// stereotypes, or without a compiled check of the target's element type,
// is a programming error and panics.
func (s *ruleSet[T]) add(c *Constraint) {
	check, ok := compiledChecks[c.ID].(func(*uml.Index, T) (bool, error))
	if !ok || len(c.Stereotypes) == 0 {
		panic(fmt.Sprintf("profile: built-in constraint %s needs stereotypes and a compiled check", c.ID))
	}
	if s.byStereotype == nil {
		s.byStereotype = map[string][]rule[T]{}
	}
	for _, st := range c.Stereotypes {
		s.byStereotype[st] = append(s.byStereotype[st], rule[T]{c: c, check: check})
	}
}

// evaluation is one run of EvaluateConstraintsWith.
type evaluation struct {
	m     *uml.Model
	ix    *uml.Index
	extra []Constraint
	out   []Violation
}

// evalElement records the violations of one element found in package p:
// its built-in rows, then the extra rules that apply to it, each in
// order.
func evalElement[T any](ev *evaluation, s *ruleSet[T], p *uml.Package, e T) {
	st := s.stereotype(e)
	for _, r := range s.byStereotype[st] {
		if ok, err := r.check(ev.ix, e); !ok {
			ev.out = append(ev.out, Violation{Constraint: *r.c, Element: s.label(p, e), Err: err})
		}
	}
	var obj ocl.Object
	for _, c := range ev.extra {
		if c.Target != s.target || !c.appliesTo(st) {
			continue
		}
		if obj == nil {
			obj = Adapt(ev.m, e)
		}
		if ok, err := c.Expr.EvalBool(obj); !ok {
			ev.out = append(ev.out, Violation{Constraint: c, Element: s.label(p, e), Err: err})
		}
	}
}
