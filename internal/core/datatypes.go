package core

import "fmt"

// ComponentType is the type of a content or supplementary component:
// either a primitive (PRIM) or an enumeration (ENUM) restricting the
// value space.
type ComponentType interface {
	// TypeName returns the model-level name (e.g. "String",
	// "CountryType_Code").
	TypeName() string
	componentType() // marker
}

// DataType is the type of a basic component: a core data type (CDT) or a
// qualified data type (QDT). The paper (Section 2.2): "The data type of a
// basic business information entity can either be a core data type (CDT)
// or a qualified data type (QDT)." BCCs only ever use CDTs.
type DataType interface {
	// TypeName returns the model-level name (e.g. "Code", "CountryType").
	TypeName() string
	// DataTypeLibrary returns the library defining the data type.
	DataTypeLibrary() *Library
	dataType() // marker
}

// PRIM is one of the CCTS primitive types (String, Boolean, Integer in
// the paper's package 7; CCTS 2.01 additionally defines Binary, Decimal,
// Double, Float, TimeDuration and TimePoint).
type PRIM struct {
	Name       string
	Definition string

	library *Library
}

// TypeName implements ComponentType.
func (p *PRIM) TypeName() string { return p.Name }

func (p *PRIM) componentType() {}

// Library returns the owning PRIMLibrary.
func (p *PRIM) Library() *Library { return p.library }

// ENUM is an enumeration type defined in an ENUMLibrary. Assigning an
// ENUM to a content or supplementary component restricts its values, as
// the QDTs CountryType and CouncilType do in the paper's package 3.
type ENUM struct {
	Name       string
	Definition string
	Literals   []EnumLiteral

	library *Library
}

// EnumLiteral is one code value, e.g. AUT = "Austria".
type EnumLiteral struct {
	// Name is the code written into instances ("AUT").
	Name string
	// Value is the human-readable meaning ("Austria").
	Value string
}

// TypeName implements ComponentType.
func (e *ENUM) TypeName() string { return e.Name }

func (e *ENUM) componentType() {}

// Library returns the owning ENUMLibrary.
func (e *ENUM) Library() *Library { return e.library }

// AddLiteral appends a literal and returns the ENUM for chaining.
func (e *ENUM) AddLiteral(name, value string) *ENUM {
	e.Literals = append(e.Literals, EnumLiteral{Name: name, Value: value})
	return e
}

// LiteralNames returns the code values in declaration order.
func (e *ENUM) LiteralNames() []string {
	out := make([]string, len(e.Literals))
	for i, l := range e.Literals {
		out[i] = l.Name
	}
	return out
}

// HasLiteral reports whether the code value is part of the enumeration.
func (e *ENUM) HasLiteral(name string) bool {
	for _, l := range e.Literals {
		if l.Name == name {
			return true
		}
	}
	return false
}

// ContentComponent is the CON part of a data type: "The content component
// element carries the actual content of the core data type."  Exactly one
// per CDT/QDT.
type ContentComponent struct {
	// Name is conventionally "Content".
	Name string
	// Type is a PRIM for CDTs; QDTs may restrict it with an ENUM.
	Type ComponentType
}

// Content is a convenience constructor for the conventional content
// component named "Content".
func Content(t ComponentType) ContentComponent {
	return ContentComponent{Name: "Content", Type: t}
}

// SupplementaryComponent is a SUP part: "supplementary components can be
// regarded as meta information about the content component."
type SupplementaryComponent struct {
	Name string
	// Type is a PRIM or an ENUM.
	Type ComponentType
	// Card is usually 1 (required attribute) or 0..1 (optional), matching
	// use="required"/"optional" in the generated schema.
	Card Cardinality
	// Definition is emitted as annotation when the generator runs with
	// annotations enabled.
	Definition string
}

// CDT is a core data type: a complex data type according to the approved
// Core Component Types of the CCTS standard, e.g. Code or DateTime. By
// definition CDTs carry no business semantics.
type CDT struct {
	Name       string
	Definition string
	Content    ContentComponent
	Sups       []SupplementaryComponent

	library *Library
}

// TypeName implements DataType.
func (d *CDT) TypeName() string { return d.Name }

func (d *CDT) dataType() {}

// DataTypeLibrary implements DataType.
func (d *CDT) DataTypeLibrary() *Library { return d.library }

// AddSup appends a supplementary component and returns the CDT for
// chaining.
func (d *CDT) AddSup(name string, t ComponentType, card Cardinality) *CDT {
	d.Sups = append(d.Sups, SupplementaryComponent{Name: name, Type: t, Card: card})
	return d
}

// Sup returns the supplementary component with the given name, or nil.
func (d *CDT) Sup(name string) *SupplementaryComponent {
	for i := range d.Sups {
		if d.Sups[i].Name == name {
			return &d.Sups[i]
		}
	}
	return nil
}

// QDT is a qualified data type, created from a CDT by restriction: a
// subset of the CDT's supplementary components, and content/supplementary
// components optionally restricted to enumerations.
type QDT struct {
	Name       string
	Definition string
	BasedOn    *CDT
	Content    ContentComponent
	Sups       []SupplementaryComponent

	library *Library
}

// TypeName implements DataType.
func (d *QDT) TypeName() string { return d.Name }

func (d *QDT) dataType() {}

// DataTypeLibrary implements DataType.
func (d *QDT) DataTypeLibrary() *Library { return d.library }

// Sup returns the supplementary component with the given name, or nil.
func (d *QDT) Sup(name string) *SupplementaryComponent {
	for i := range d.Sups {
		if d.Sups[i].Name == name {
			return &d.Sups[i]
		}
	}
	return nil
}

// ContentEnum returns the ENUM restricting the content component, or nil
// when the content is a plain primitive.
func (d *QDT) ContentEnum() *ENUM {
	if e, ok := d.Content.Type.(*ENUM); ok {
		return e
	}
	return nil
}

// CheckRestriction verifies that the QDT is a legal restriction of its
// base CDT: every SUP must exist on the CDT with a narrowed (or equal)
// cardinality, and the content component must keep the CDT's primitive or
// restrict it with an ENUM. This is re-run by internal/validate for
// models built by hand or imported from XMI.
func (d *QDT) CheckRestriction() error {
	if d.BasedOn == nil {
		return fmt.Errorf("core: QDT %q has no basedOn CDT", d.Name)
	}
	switch d.Content.Type.(type) {
	case *PRIM:
		if base, ok := d.BasedOn.Content.Type.(*PRIM); !ok || base.Name != d.Content.Type.TypeName() {
			return fmt.Errorf("core: QDT %q content primitive %q differs from CDT %q content %q",
				d.Name, d.Content.Type.TypeName(), d.BasedOn.Name, componentTypeName(d.BasedOn.Content.Type))
		}
	case *ENUM:
		// Restricting the content with an enumeration is always a
		// restriction of the base value space.
	default:
		return fmt.Errorf("core: QDT %q has no content component type", d.Name)
	}
	for _, s := range d.Sups {
		base := d.BasedOn.Sup(s.Name)
		if base == nil {
			return fmt.Errorf("core: QDT %q adds SUP %q not present on CDT %q (derivation is by restriction only)",
				d.Name, s.Name, d.BasedOn.Name)
		}
		// SUPs are meta information; a QDT may make a required SUP
		// optional (the paper's CouncilType keeps CodeListName as [0..1]
		// although Code requires it) but must not widen the upper bound.
		if base.Card.Upper != Unbounded && (s.Card.Upper == Unbounded || s.Card.Upper > base.Card.Upper) {
			return fmt.Errorf("core: QDT %q SUP %q cardinality %s widens CDT cardinality %s",
				d.Name, s.Name, s.Card, base.Card)
		}
		if _, ok := s.Type.(*ENUM); ok {
			continue // enum restriction of a SUP is always legal
		}
		if got, want := componentTypeName(s.Type), componentTypeName(base.Type); got != want {
			return fmt.Errorf("core: QDT %q SUP %q type %q differs from CDT SUP type %q",
				d.Name, s.Name, got, want)
		}
	}
	return nil
}

// componentTypeName is t's name, or "" for an untyped component.
func componentTypeName(t ComponentType) string {
	if t == nil {
		return ""
	}
	return t.TypeName()
}
