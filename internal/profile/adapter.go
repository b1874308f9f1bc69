package profile

import (
	"github.com/go-ccts/ccts/internal/ocl"
	"github.com/go-ccts/ccts/internal/uml"
)

// This file adapts UML model elements to ocl.Object so the profile's
// constraints can navigate them. Exposed properties:
//
//	Package:     name, stereotype, packages, classes, enumerations,
//	             associations, dependencies, <tagged values by name>
//	Class:       name, stereotype, attributes, basedOn (suppliers of
//	             outgoing basedOn dependencies), associations (outgoing),
//	             package, <tagged values>
//	Attribute:   name, stereotype, typeName, type (classifier or null),
//	             lower, upper, owner, <tagged values>
//	Association: stereotype, source, target, role, lower, upper, kind,
//	             <tagged values>
//	Dependency:  stereotype, client, supplier
//	Enumeration: name, stereotype, literals, package, <tagged values>
//	Literal:     name, value

// Adapt wraps any supported UML element as an ocl.Object. The model is
// needed to resolve cross-references (attribute types, basedOn
// dependencies).
func Adapt(m *uml.Model, element any) ocl.Object {
	switch e := element.(type) {
	case *uml.Package:
		return &packageObj{m: m, p: e}
	case *uml.Class:
		return &classObj{m: m, c: e}
	case *uml.Attribute:
		return &attributeObj{m: m, a: e}
	case *uml.Association:
		return &associationObj{m: m, a: e}
	case *uml.Dependency:
		return &dependencyObj{m: m, d: e}
	case *uml.Enumeration:
		return &enumerationObj{m: m, e: e}
	}
	return nil
}

// adaptClassifier wraps a class or enumeration; anything else, a nil
// pointer of either included, is null.
func adaptClassifier(m *uml.Model, c uml.Classifier) ocl.Value {
	switch t := c.(type) {
	case *uml.Class:
		if t != nil {
			return ocl.Obj(&classObj{m: m, c: t})
		}
	case *uml.Enumeration:
		if t != nil {
			return ocl.Obj(&enumerationObj{m: m, e: t})
		}
	}
	return ocl.Null()
}

func tagValue(tags uml.TaggedValues, name string) (ocl.Value, bool) {
	if tags.Has(name) {
		return ocl.String(tags.Get(name)), true
	}
	return ocl.Value{}, false
}

type packageObj struct {
	m *uml.Model
	p *uml.Package
}

func (o *packageObj) OCLTypeName() string { return "Package" }

func (o *packageObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "name":
		return ocl.String(o.p.Name), true
	case "stereotype":
		return ocl.String(o.p.Stereotype), true
	case "packages":
		vs := make([]ocl.Value, len(o.p.Packages))
		for i, c := range o.p.Packages {
			vs[i] = ocl.Obj(&packageObj{m: o.m, p: c})
		}
		return ocl.Coll(vs...), true
	case "classes":
		vs := make([]ocl.Value, len(o.p.Classes))
		for i, c := range o.p.Classes {
			vs[i] = ocl.Obj(&classObj{m: o.m, c: c})
		}
		return ocl.Coll(vs...), true
	case "enumerations":
		vs := make([]ocl.Value, len(o.p.Enumerations))
		for i, e := range o.p.Enumerations {
			vs[i] = ocl.Obj(&enumerationObj{m: o.m, e: e})
		}
		return ocl.Coll(vs...), true
	case "associations":
		vs := make([]ocl.Value, len(o.p.Associations))
		for i, a := range o.p.Associations {
			vs[i] = ocl.Obj(&associationObj{m: o.m, a: a})
		}
		return ocl.Coll(vs...), true
	case "dependencies":
		vs := make([]ocl.Value, len(o.p.Dependencies))
		for i, d := range o.p.Dependencies {
			vs[i] = ocl.Obj(&dependencyObj{m: o.m, d: d})
		}
		return ocl.Coll(vs...), true
	}
	return tagValue(o.p.Tags, name)
}

type classObj struct {
	m *uml.Model
	c *uml.Class
}

func (o *classObj) OCLTypeName() string { return "Class" }

func (o *classObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "name":
		return ocl.String(o.c.Name), true
	case "stereotype":
		return ocl.String(o.c.Stereotype), true
	case "attributes":
		vs := make([]ocl.Value, len(o.c.Attributes))
		for i, a := range o.c.Attributes {
			vs[i] = ocl.Obj(&attributeObj{m: o.m, a: a})
		}
		return ocl.Coll(vs...), true
	case "basedOn":
		var vs []ocl.Value
		for _, d := range o.m.DependenciesFrom(o.c) {
			if d.Stereotype == StBasedOn {
				vs = append(vs, adaptClassifier(o.m, d.Supplier))
			}
		}
		return ocl.Coll(vs...), true
	case "associations":
		var vs []ocl.Value
		for _, a := range o.m.AssociationsFrom(o.c) {
			vs = append(vs, ocl.Obj(&associationObj{m: o.m, a: a}))
		}
		return ocl.Coll(vs...), true
	case "package":
		if o.c.Owner() == nil {
			return ocl.Null(), true
		}
		return ocl.Obj(&packageObj{m: o.m, p: o.c.Owner()}), true
	}
	return tagValue(o.c.Tags, name)
}

type attributeObj struct {
	m *uml.Model
	a *uml.Attribute
}

func (o *attributeObj) OCLTypeName() string { return "Attribute" }

func (o *attributeObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "name":
		return ocl.String(o.a.Name), true
	case "stereotype":
		return ocl.String(o.a.Stereotype), true
	case "typeName":
		return ocl.String(o.a.TypeName), true
	case "type":
		t, err := o.m.ResolveType(o.a.TypeName)
		if err != nil {
			return ocl.Null(), true
		}
		return adaptClassifier(o.m, t), true
	case "lower":
		return ocl.Int(o.a.Mult.Lower), true
	case "upper":
		return ocl.Int(o.a.Mult.Upper), true
	case "owner":
		if o.a.Owner() == nil {
			return ocl.Null(), true
		}
		return ocl.Obj(&classObj{m: o.m, c: o.a.Owner()}), true
	}
	return tagValue(o.a.Tags, name)
}

type associationObj struct {
	m *uml.Model
	a *uml.Association
}

func (o *associationObj) OCLTypeName() string { return "Association" }

func (o *associationObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "stereotype":
		return ocl.String(o.a.Stereotype), true
	case "source":
		if o.a.Source == nil {
			return ocl.Null(), true
		}
		return ocl.Obj(&classObj{m: o.m, c: o.a.Source}), true
	case "target":
		if o.a.Target == nil {
			return ocl.Null(), true
		}
		return ocl.Obj(&classObj{m: o.m, c: o.a.Target}), true
	case "role":
		return ocl.String(o.a.TargetRole), true
	case "lower":
		return ocl.Int(o.a.TargetMult.Lower), true
	case "upper":
		return ocl.Int(o.a.TargetMult.Upper), true
	case "kind":
		return ocl.String(o.a.Kind.String()), true
	}
	return tagValue(o.a.Tags, name)
}

type dependencyObj struct {
	m *uml.Model
	d *uml.Dependency
}

func (o *dependencyObj) OCLTypeName() string { return "Dependency" }

func (o *dependencyObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "stereotype":
		return ocl.String(o.d.Stereotype), true
	case "client":
		return adaptClassifier(o.m, o.d.Client), true
	case "supplier":
		return adaptClassifier(o.m, o.d.Supplier), true
	}
	return ocl.Value{}, false
}

type enumerationObj struct {
	m *uml.Model
	e *uml.Enumeration
}

func (o *enumerationObj) OCLTypeName() string { return "Enumeration" }

func (o *enumerationObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "name":
		return ocl.String(o.e.Name), true
	case "stereotype":
		return ocl.String(o.e.Stereotype), true
	case "literals":
		vs := make([]ocl.Value, len(o.e.Literals))
		for i := range o.e.Literals {
			vs[i] = ocl.Obj(&literalObj{l: o.e.Literals[i]})
		}
		return ocl.Coll(vs...), true
	case "package":
		if o.e.Owner() == nil {
			return ocl.Null(), true
		}
		return ocl.Obj(&packageObj{m: o.m, p: o.e.Owner()}), true
	}
	return tagValue(o.e.Tags, name)
}

type literalObj struct {
	l uml.EnumLiteral
}

func (o *literalObj) OCLTypeName() string { return "EnumerationLiteral" }

func (o *literalObj) OCLProperty(name string) (ocl.Value, bool) {
	switch name {
	case "name":
		return ocl.String(o.l.Name), true
	case "value":
		return ocl.String(o.l.Value), true
	}
	return ocl.Value{}, false
}
