package profile

import (
	"fmt"

	"github.com/go-ccts/ccts/internal/ocl"
	"github.com/go-ccts/ccts/internal/uml"
)

// Target selects the UML element type a constraint is evaluated on.
type Target int

const (
	// TargetPackage constraints run on packages.
	TargetPackage Target = iota
	// TargetClass constraints run on classes.
	TargetClass
	// TargetAssociation constraints run on associations.
	TargetAssociation
	// TargetDependency constraints run on dependencies.
	TargetDependency
	// TargetEnumeration constraints run on enumerations.
	TargetEnumeration
)

// Constraint is one OCL well-formedness rule of the profile.
type Constraint struct {
	// ID is the stable rule identifier reported in validation output.
	ID string
	// Target selects the element type.
	Target Target
	// Stereotypes restricts evaluation to elements carrying one of these
	// stereotypes; empty means every element of the target type.
	Stereotypes []string
	// Description is the human-readable rule statement.
	Description string
	// Expr is the boolean OCL expression; the element is self.
	Expr *ocl.Expression
}

// appliesTo reports whether the constraint covers the stereotype.
func (c Constraint) appliesTo(st string) bool {
	if len(c.Stereotypes) == 0 {
		return true
	}
	for _, s := range c.Stereotypes {
		if s == st {
			return true
		}
	}
	return false
}

var allLibraryStereotypes = []string{
	StCCLibrary, StBIELibrary, StCDTLibrary, StQDTLibrary,
	StENUMLibrary, StPRIMLibrary, StDOCLibrary,
}

// constraintTable holds the profile's OCL rules. Expressions are parsed
// once at package initialisation; a parse failure is a programming error
// and panics.
var constraintTable = []Constraint{
	// ----- Library packages -----
	{
		ID: "LIB-1", Target: TargetPackage, Stereotypes: allLibraryStereotypes,
		Description: "every library defines a non-empty baseURN tagged value",
		Expr:        ocl.MustParse("not self.baseURN.oclIsUndefined() and self.baseURN <> ''"),
	},
	{
		ID: "LIB-2", Target: TargetPackage, Stereotypes: allLibraryStereotypes,
		Description: "every library has a non-empty name",
		Expr:        ocl.MustParse("self.name <> ''"),
	},
	{
		ID: "CCL-1", Target: TargetPackage, Stereotypes: []string{StCCLibrary},
		Description: "a CCLibrary contains only ACC classes",
		Expr:        ocl.MustParse("self.classes->forAll(c | c.stereotype = 'ACC')"),
	},
	{
		ID: "CCL-2", Target: TargetPackage, Stereotypes: []string{StCCLibrary},
		Description: "a CCLibrary contains only ASCC associations",
		Expr:        ocl.MustParse("self.associations->forAll(a | a.stereotype = 'ASCC')"),
	},
	{
		ID: "CCL-3", Target: TargetPackage, Stereotypes: []string{StCCLibrary},
		Description: "a CCLibrary contains no enumerations",
		Expr:        ocl.MustParse("self.enumerations->isEmpty()"),
	},
	{
		ID: "BIEL-1", Target: TargetPackage, Stereotypes: []string{StBIELibrary, StDOCLibrary},
		Description: "BIE and DOC libraries contain only ABIE classes",
		Expr:        ocl.MustParse("self.classes->forAll(c | c.stereotype = 'ABIE')"),
	},
	{
		ID: "BIEL-2", Target: TargetPackage, Stereotypes: []string{StBIELibrary, StDOCLibrary},
		Description: "BIE and DOC libraries contain only ASBIE associations",
		Expr:        ocl.MustParse("self.associations->forAll(a | a.stereotype = 'ASBIE')"),
	},
	{
		ID: "CDTL-1", Target: TargetPackage, Stereotypes: []string{StCDTLibrary},
		Description: "a CDTLibrary contains only CDT classes",
		Expr:        ocl.MustParse("self.classes->forAll(c | c.stereotype = 'CDT')"),
	},
	{
		ID: "QDTL-1", Target: TargetPackage, Stereotypes: []string{StQDTLibrary},
		Description: "a QDTLibrary contains only QDT classes",
		Expr:        ocl.MustParse("self.classes->forAll(c | c.stereotype = 'QDT')"),
	},
	{
		ID: "ENUML-1", Target: TargetPackage, Stereotypes: []string{StENUMLibrary},
		Description: "an ENUMLibrary contains only ENUM enumerations and no classes",
		Expr: ocl.MustParse(
			"self.classes->isEmpty() and self.enumerations->forAll(e | e.stereotype = 'ENUM')"),
	},
	{
		ID: "PRIML-1", Target: TargetPackage, Stereotypes: []string{StPRIMLibrary},
		Description: "a PRIMLibrary contains only PRIM classes",
		Expr:        ocl.MustParse("self.classes->forAll(c | c.stereotype = 'PRIM')"),
	},
	{
		ID: "BUSL-1", Target: TargetPackage, Stereotypes: []string{StBusinessLibrary},
		Description: "a BusinessLibrary groups only library packages",
		Expr: ocl.MustParse("let kinds = Set{'CCLibrary', 'BIELibrary', 'CDTLibrary', " +
			"'QDTLibrary', 'ENUMLibrary', 'PRIMLibrary', 'DOCLibrary', 'BusinessLibrary'} in " +
			"self.packages->forAll(p | kinds->includes(p.stereotype))"),
	},

	// ----- Core components -----
	{
		ID: "ACC-1", Target: TargetClass, Stereotypes: []string{StACC},
		Description: "an ACC contains only BCC attributes",
		Expr:        ocl.MustParse("self.attributes->forAll(a | a.stereotype = 'BCC')"),
	},
	{
		ID: "ACC-2", Target: TargetClass, Stereotypes: []string{StACC},
		Description: "an ACC is not based on anything",
		Expr:        ocl.MustParse("self.basedOn->isEmpty()"),
	},
	{
		ID: "BCC-1", Target: TargetClass, Stereotypes: []string{StACC},
		Description: "every BCC is typed by a core data type",
		Expr: ocl.MustParse(
			"self.attributes->forAll(a | not a.type.oclIsUndefined() and a.type.stereotype = 'CDT')"),
	},
	{
		ID: "ASCC-1", Target: TargetAssociation, Stereotypes: []string{StASCC},
		Description: "an ASCC connects two ACCs",
		Expr: ocl.MustParse(
			"self.source.stereotype = 'ACC' and self.target.stereotype = 'ACC'"),
	},
	{
		ID: "ASCC-2", Target: TargetAssociation, Stereotypes: []string{StASCC},
		Description: "an ASCC has a role name",
		Expr:        ocl.MustParse("self.role <> ''"),
	},

	// ----- Business information entities -----
	{
		ID: "ABIE-1", Target: TargetClass, Stereotypes: []string{StABIE},
		Description: "an ABIE contains only BBIE attributes",
		Expr:        ocl.MustParse("self.attributes->forAll(a | a.stereotype = 'BBIE')"),
	},
	{
		ID: "ABIE-2", Target: TargetClass, Stereotypes: []string{StABIE},
		Description: "an ABIE is based on exactly one ACC",
		Expr: ocl.MustParse(
			"self.basedOn->size() = 1 and self.basedOn->forAll(b | b.stereotype = 'ACC')"),
	},
	{
		ID: "BBIE-1", Target: TargetClass, Stereotypes: []string{StABIE},
		Description: "every BBIE is typed by a core or qualified data type",
		Expr: ocl.MustParse("self.attributes->forAll(a | not a.type.oclIsUndefined() and " +
			"(a.type.stereotype = 'CDT' or a.type.stereotype = 'QDT'))"),
	},
	{
		ID: "ASBIE-1", Target: TargetAssociation, Stereotypes: []string{StASBIE},
		Description: "an ASBIE connects two ABIEs",
		Expr: ocl.MustParse(
			"self.source.stereotype = 'ABIE' and self.target.stereotype = 'ABIE'"),
	},
	{
		ID: "ASBIE-2", Target: TargetAssociation, Stereotypes: []string{StASBIE},
		Description: "an ASBIE has a role name",
		Expr:        ocl.MustParse("self.role <> ''"),
	},

	// ----- Data types -----
	{
		ID: "CDT-1", Target: TargetClass, Stereotypes: []string{StCDT},
		Description: "a CDT contains exactly one content component",
		Expr:        ocl.MustParse("self.attributes->select(a | a.stereotype = 'CON')->size() = 1"),
	},
	{
		ID: "CDT-2", Target: TargetClass, Stereotypes: []string{StCDT},
		Description: "a CDT contains only CON and SUP attributes",
		Expr: ocl.MustParse(
			"self.attributes->forAll(a | Set{'CON', 'SUP'}->includes(a.stereotype))"),
	},
	{
		ID: "CDT-3", Target: TargetClass, Stereotypes: []string{StCDT},
		Description: "a CDT is not based on anything",
		Expr:        ocl.MustParse("self.basedOn->isEmpty()"),
	},
	{
		ID: "CDT-4", Target: TargetClass, Stereotypes: []string{StCDT},
		Description: "CDT components are typed by primitive types",
		Expr: ocl.MustParse(
			"self.attributes->forAll(a | not a.type.oclIsUndefined() and a.type.stereotype = 'PRIM')"),
	},
	{
		ID: "QDT-1", Target: TargetClass, Stereotypes: []string{StQDT},
		Description: "a QDT contains exactly one content component",
		Expr:        ocl.MustParse("self.attributes->select(a | a.stereotype = 'CON')->size() = 1"),
	},
	{
		ID: "QDT-2", Target: TargetClass, Stereotypes: []string{StQDT},
		Description: "a QDT contains only CON and SUP attributes",
		Expr: ocl.MustParse(
			"self.attributes->forAll(a | a.stereotype = 'CON' or a.stereotype = 'SUP')"),
	},
	{
		ID: "QDT-3", Target: TargetClass, Stereotypes: []string{StQDT},
		Description: "a QDT is based on exactly one CDT",
		Expr: ocl.MustParse(
			"self.basedOn->size() = 1 and self.basedOn->forAll(b | b.stereotype = 'CDT')"),
	},
	{
		ID: "QDT-4", Target: TargetClass, Stereotypes: []string{StQDT},
		Description: "QDT components are typed by primitive or enumeration types",
		Expr: ocl.MustParse("self.attributes->forAll(a | not a.type.oclIsUndefined() and " +
			"(a.type.stereotype = 'PRIM' or a.type.stereotype = 'ENUM'))"),
	},
	{
		ID: "PRIM-1", Target: TargetClass, Stereotypes: []string{StPRIM},
		Description: "a PRIM has no attributes",
		Expr:        ocl.MustParse("self.attributes->isEmpty()"),
	},
	{
		ID: "ENUM-1", Target: TargetEnumeration, Stereotypes: []string{StENUM},
		Description: "an ENUM defines at least one literal",
		Expr:        ocl.MustParse("self.literals->notEmpty()"),
	},
	{
		ID: "ENUM-2", Target: TargetEnumeration, Stereotypes: []string{StENUM},
		Description: "ENUM literals are unique",
		Expr: ocl.MustParse(
			"self.literals->forAll(l | self.literals->select(k | k.name = l.name)->size() = 1)"),
	},

	// ----- Dependencies -----
	{
		ID: "DEP-1", Target: TargetDependency, Stereotypes: []string{StBasedOn},
		Description: "basedOn links an ABIE to an ACC or a QDT to a CDT",
		Expr: ocl.MustParse(
			"(self.client.stereotype = 'ABIE' and self.supplier.stereotype = 'ACC') or " +
				"(self.client.stereotype = 'QDT' and self.supplier.stereotype = 'CDT')"),
	},
}

// Constraints returns the profile's OCL constraint table.
func Constraints() []Constraint {
	return append([]Constraint(nil), constraintTable...)
}

// NewConstraint compiles a user-defined OCL rule. Model governance teams
// add house rules this way (e.g. "every ABIE carries a definition")
// without touching the built-in table.
func NewConstraint(id string, target Target, stereotypes []string, description, oclSource string) (Constraint, error) {
	expr, err := ocl.Parse(oclSource)
	if err != nil {
		return Constraint{}, err
	}
	if id == "" {
		return Constraint{}, fmt.Errorf("profile: constraint needs an ID")
	}
	return Constraint{
		ID:          id,
		Target:      target,
		Stereotypes: append([]string(nil), stereotypes...),
		Description: description,
		Expr:        expr,
	}, nil
}

// Violation reports one constraint failure on one element.
type Violation struct {
	Constraint Constraint
	// Element is the qualified name of the violating element.
	Element string
	// Err is non-nil when the constraint could not be evaluated (e.g. a
	// dangling type reference); the violation still counts.
	Err error
}

// String renders the violation for reports.
func (v Violation) String() string {
	if v.Err != nil {
		return fmt.Sprintf("[%s] %s: %s (evaluation error: %v)",
			v.Constraint.ID, v.Element, v.Constraint.Description, v.Err)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Constraint.ID, v.Element, v.Constraint.Description)
}

// EvaluateConstraints runs every profile constraint against every
// matching element of the model and returns the violations in model
// order.
func EvaluateConstraints(m *uml.Model) []Violation {
	return EvaluateConstraintsWith(m, nil)
}

// EvaluateConstraintsWith runs the built-in table plus user-defined
// rules (see NewConstraint). The built-in rows run as compiled Go checks
// (checks.go); the extra rules run through the OCL interpreter. For each
// element, the built-in violations come before the extra ones.
func EvaluateConstraintsWith(m *uml.Model, extra []Constraint) []Violation {
	ev := &evaluation{m: m, ix: uml.NewIndex(m), extra: extra}
	m.WalkPackages(func(p *uml.Package) bool {
		evalElement(ev, packageRules, p, p)
		for _, c := range p.Classes {
			evalElement(ev, classRules, p, c)
		}
		for _, a := range p.Associations {
			evalElement(ev, associationRules, p, a)
		}
		for _, d := range p.Dependencies {
			evalElement(ev, dependencyRules, p, d)
		}
		for _, e := range p.Enumerations {
			evalElement(ev, enumerationRules, p, e)
		}
		return true
	})
	return ev.out
}
