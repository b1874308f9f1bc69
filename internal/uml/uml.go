// Package uml implements the subset of the UML2 metamodel needed to host
// the CCTS profile: hierarchical packages, classes with typed attributes,
// binary associations with aggregation kinds, dependencies, enumerations,
// stereotypes and tagged values.
//
// The package is deliberately generic: it knows nothing about CCTS. The
// CCTS semantics (which stereotypes exist, which tagged values are
// required, which OCL constraints apply) live in internal/profile. This
// mirrors the paper's architecture, where a plain UML tool repository is
// decorated by the "UML Profile for Core Components".
package uml

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Unbounded is the upper-bound value representing "*" in a multiplicity.
const Unbounded = -1

// Multiplicity is a UML multiplicity range such as 1, 0..1 or 0..*.
type Multiplicity struct {
	Lower int
	Upper int // Unbounded for "*"
}

// Common multiplicities.
var (
	One        = Multiplicity{1, 1}
	Optional   = Multiplicity{0, 1}
	Many       = Multiplicity{0, Unbounded}
	OneOrMore  = Multiplicity{1, Unbounded}
	ZeroExact  = Multiplicity{0, 0}
	defaultMul = One
)

// String renders the multiplicity in UML surface syntax.
func (m Multiplicity) String() string {
	if m.Upper == Unbounded {
		if m.Lower == 0 {
			return "0..*"
		}
		return fmt.Sprintf("%d..*", m.Lower)
	}
	if m.Lower == m.Upper {
		return fmt.Sprintf("%d", m.Lower)
	}
	return fmt.Sprintf("%d..%d", m.Lower, m.Upper)
}

// Valid reports whether the range is well-formed (lower >= 0 and upper >=
// lower, or unbounded).
func (m Multiplicity) Valid() bool {
	if m.Lower < 0 {
		return false
	}
	return m.Upper == Unbounded || m.Upper >= m.Lower
}

// Within reports whether m is a legal restriction of outer, i.e. every
// cardinality allowed by m is also allowed by outer. CCTS
// derivation-by-restriction requires BIE multiplicities to be within the
// corresponding CC multiplicities.
func (m Multiplicity) Within(outer Multiplicity) bool {
	if m.Lower < outer.Lower {
		return false
	}
	if outer.Upper == Unbounded {
		return true
	}
	return m.Upper != Unbounded && m.Upper <= outer.Upper
}

// ParseMultiplicity parses UML surface syntax: "1", "0..1", "0..*", "*",
// "2..5".
func ParseMultiplicity(s string) (Multiplicity, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return defaultMul, nil
	}
	if s == "*" {
		return Many, nil
	}
	lo, hi, found := strings.Cut(s, "..")
	if !found {
		n, err := parseBound(s)
		if err != nil {
			return Multiplicity{}, err
		}
		if n == Unbounded {
			return Many, nil
		}
		return Multiplicity{n, n}, nil
	}
	lower, err := parseBound(lo)
	if err != nil || lower == Unbounded {
		return Multiplicity{}, fmt.Errorf("uml: invalid multiplicity %q", s)
	}
	upper, err := parseBound(hi)
	if err != nil {
		return Multiplicity{}, err
	}
	m := Multiplicity{lower, upper}
	if !m.Valid() {
		return Multiplicity{}, fmt.Errorf("uml: invalid multiplicity %q", s)
	}
	return m, nil
}

// parseBound parses one multiplicity bound: "*" or ASCII digits that
// fit an int, optionally surrounded by spaces. Signs, underscores, other
// bases and trailing characters are errors.
func parseBound(tok string) (int, error) {
	tok = strings.TrimSpace(tok)
	if tok == "*" {
		return Unbounded, nil
	}
	n, err := strconv.ParseUint(tok, 10, strconv.IntSize-1)
	if err != nil {
		return 0, fmt.Errorf("uml: invalid multiplicity bound %q", tok)
	}
	return int(n), nil
}

// TaggedValues holds the UML tagged values attached to an element. Keys
// are tag names (e.g. "baseURN", "businessTerm"). The zero value is ready
// to use.
type TaggedValues map[string]string

// Get returns the value for tag, or "" if absent.
func (tv TaggedValues) Get(tag string) string { return tv[tag] }

// Set assigns a tagged value, allocating the map if needed, and returns
// the (possibly new) map so callers can write tv = tv.Set(...).
func (tv *TaggedValues) Set(tag, value string) {
	if *tv == nil {
		*tv = make(TaggedValues)
	}
	(*tv)[tag] = value
}

// Has reports whether the tag is present (even if empty).
func (tv TaggedValues) Has(tag string) bool {
	_, ok := tv[tag]
	return ok
}

// Names returns the tag names in sorted order, for deterministic output.
func (tv TaggedValues) Names() []string {
	names := make([]string, 0, len(tv))
	for k := range tv {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Clone returns an independent copy of the tagged values.
func (tv TaggedValues) Clone() TaggedValues {
	if tv == nil {
		return nil
	}
	out := make(TaggedValues, len(tv))
	for k, v := range tv {
		out[k] = v
	}
	return out
}

// AggregationKind distinguishes plain associations, shared aggregations
// (hollow diamond) and composite aggregations (filled diamond).
type AggregationKind int

const (
	// AggregationNone is a plain association.
	AggregationNone AggregationKind = iota
	// AggregationShared is a shared (hollow-diamond) aggregation. The
	// paper's Figure 7 connects Person_Identification to Address this way.
	AggregationShared
	// AggregationComposite is a composite (filled-diamond) aggregation,
	// the usual ASBIE connector in the paper's DOCLibrary example.
	AggregationComposite
)

// String names the aggregation kind in lower-case UML vocabulary.
func (k AggregationKind) String() string {
	switch k {
	case AggregationNone:
		return "none"
	case AggregationShared:
		return "shared"
	case AggregationComposite:
		return "composite"
	default:
		return fmt.Sprintf("AggregationKind(%d)", int(k))
	}
}

// ParseAggregationKind is the inverse of String.
func ParseAggregationKind(s string) (AggregationKind, error) {
	switch s {
	case "none", "":
		return AggregationNone, nil
	case "shared":
		return AggregationShared, nil
	case "composite":
		return AggregationComposite, nil
	}
	return AggregationNone, fmt.Errorf("uml: unknown aggregation kind %q", s)
}

// Classifier is implemented by the named, stereotyped, package-owned
// model elements that can participate in dependencies and be referenced
// as attribute types: Class and Enumeration.
type Classifier interface {
	ClassifierName() string
	ClassifierStereotype() string
	Owner() *Package
	QualifiedName() string
}

// Model is the root of a UML repository.
type Model struct {
	Name     string
	Packages []*Package
	Tags     TaggedValues
}

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{Name: name}
}

// AddPackage appends a new top-level package and returns it.
func (m *Model) AddPackage(name, stereotype string) *Package {
	p := &Package{Name: name, Stereotype: stereotype, model: m}
	m.Packages = append(m.Packages, p)
	return p
}

// Package is a UML package. In the CCTS profile, packages carry library
// stereotypes (CCLibrary, BIELibrary, DOCLibrary, ...) or the
// BusinessLibrary stereotype for grouping packages.
type Package struct {
	Name       string
	Stereotype string
	Tags       TaggedValues

	Packages     []*Package
	Classes      []*Class
	Enumerations []*Enumeration
	Associations []*Association
	Dependencies []*Dependency

	parent *Package
	model  *Model
}

// Parent returns the owning package, or nil for a top-level package.
func (p *Package) Parent() *Package { return p.parent }

// Model returns the repository root this package belongs to.
func (p *Package) Model() *Model {
	if p.model != nil {
		return p.model
	}
	if p.parent != nil {
		return p.parent.Model()
	}
	return nil
}

// QualifiedName returns the ::-separated path from the model root, e.g.
// "EasyBiz::CommonAggregates".
func (p *Package) QualifiedName() string {
	if p.parent == nil {
		return p.Name
	}
	return p.parent.QualifiedName() + "::" + p.Name
}

// AddPackage appends a nested package and returns it.
func (p *Package) AddPackage(name, stereotype string) *Package {
	child := &Package{Name: name, Stereotype: stereotype, parent: p}
	p.Packages = append(p.Packages, child)
	return child
}

// AddClass appends a class with the given stereotype and returns it.
func (p *Package) AddClass(name, stereotype string) *Class {
	c := &Class{Name: name, Stereotype: stereotype, owner: p}
	p.Classes = append(p.Classes, c)
	return c
}

// AddEnumeration appends an enumeration and returns it.
func (p *Package) AddEnumeration(name, stereotype string) *Enumeration {
	e := &Enumeration{Name: name, Stereotype: stereotype, owner: p}
	p.Enumerations = append(p.Enumerations, e)
	return e
}

// AddAssociation records a binary association owned by this package.
func (p *Package) AddAssociation(a *Association) *Association {
	a.owner = p
	p.Associations = append(p.Associations, a)
	return a
}

// AddDependency records a stereotyped dependency (client depends on
// supplier), e.g. a basedOn dependency from an ABIE to its ACC.
func (p *Package) AddDependency(stereotype string, client, supplier Classifier) *Dependency {
	d := &Dependency{Stereotype: stereotype, Client: client, Supplier: supplier, owner: p}
	p.Dependencies = append(p.Dependencies, d)
	return d
}

// Class is a UML class. In the profile it carries one of the classifier
// stereotypes: ACC, ABIE, CDT, QDT, PRIM (primitives are modelled as
// stereotyped classes without attributes).
type Class struct {
	Name       string
	Stereotype string
	Tags       TaggedValues
	Attributes []*Attribute

	owner *Package
}

// ClassifierName implements Classifier.
func (c *Class) ClassifierName() string { return c.Name }

// ClassifierStereotype implements Classifier.
func (c *Class) ClassifierStereotype() string { return c.Stereotype }

// Owner implements Classifier.
func (c *Class) Owner() *Package { return c.owner }

// QualifiedName returns the ::-separated path including the owning
// packages, e.g. "EasyBiz::CommonAggregates::Address".
func (c *Class) QualifiedName() string {
	if c.owner == nil {
		return c.Name
	}
	return c.owner.QualifiedName() + "::" + c.Name
}

// AddAttribute appends an attribute and returns it. typeName references a
// classifier by simple or qualified name; resolution happens via
// Model.ResolveType.
func (c *Class) AddAttribute(name, stereotype, typeName string, mult Multiplicity) *Attribute {
	a := &Attribute{Name: name, Stereotype: stereotype, TypeName: typeName, Mult: mult, owner: c}
	c.Attributes = append(c.Attributes, a)
	return a
}

// AttributesByStereotype returns the attributes carrying the given
// stereotype, in declaration order.
func (c *Class) AttributesByStereotype(st string) []*Attribute {
	var out []*Attribute
	for _, a := range c.Attributes {
		if a.Stereotype == st {
			out = append(out, a)
		}
	}
	return out
}

// Attribute is a UML property owned by a class. In the profile it carries
// BCC, BBIE, CON or SUP stereotypes.
type Attribute struct {
	Name       string
	Stereotype string
	TypeName   string
	Mult       Multiplicity
	Tags       TaggedValues

	owner *Class
}

// Owner returns the class owning this attribute.
func (a *Attribute) Owner() *Class { return a.owner }

// Association is a binary association between two classes. Source is the
// whole (diamond) end; Target is the part end that becomes an element in
// the generated schema. In the profile, associations carry ASCC or ASBIE
// stereotypes.
type Association struct {
	Stereotype string
	Source     *Class
	Target     *Class
	// TargetRole is the role name at the target end; the paper composes
	// ASBIE element names as role name + target ABIE name.
	TargetRole string
	// TargetMult is the multiplicity at the target end.
	TargetMult Multiplicity
	Kind       AggregationKind
	Tags       TaggedValues

	owner *Package
}

// Owner returns the package that owns the association.
func (a *Association) Owner() *Package { return a.owner }

// Dependency is a stereotyped UML dependency. The profile uses the
// basedOn stereotype to link BIEs to the core components they restrict
// and QDTs to their CDTs.
type Dependency struct {
	Stereotype string
	Client     Classifier
	Supplier   Classifier

	owner *Package
}

// Owner returns the package that owns the dependency.
func (d *Dependency) Owner() *Package { return d.owner }

// EnumLiteral is one value of an enumeration, e.g. AUT = "Austria".
type EnumLiteral struct {
	Name  string
	Value string
}

// Enumeration is a UML enumeration; in the profile it carries the ENUM
// stereotype and restricts QDT content components.
type Enumeration struct {
	Name       string
	Stereotype string
	Tags       TaggedValues
	Literals   []EnumLiteral

	owner *Package
}

// ClassifierName implements Classifier.
func (e *Enumeration) ClassifierName() string { return e.Name }

// ClassifierStereotype implements Classifier.
func (e *Enumeration) ClassifierStereotype() string { return e.Stereotype }

// Owner implements Classifier.
func (e *Enumeration) Owner() *Package { return e.owner }

// QualifiedName returns the ::-separated path including owning packages.
func (e *Enumeration) QualifiedName() string {
	if e.owner == nil {
		return e.Name
	}
	return e.owner.QualifiedName() + "::" + e.Name
}

// AddLiteral appends an enumeration literal and returns the enumeration
// for chaining.
func (e *Enumeration) AddLiteral(name, value string) *Enumeration {
	e.Literals = append(e.Literals, EnumLiteral{Name: name, Value: value})
	return e
}
