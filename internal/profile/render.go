package profile

import (
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/uml"
)

// Render converts a typed CCTS model into its stereotyped UML
// representation: business libraries become BusinessLibrary packages,
// libraries become packages with their kind's stereotype and tagged
// values, ACCs/ABIEs/CDTs/QDTs/PRIMs become stereotyped classes, ENUMs
// become stereotyped enumerations, ASCCs/ASBIEs become stereotyped
// associations and the derivation links become basedOn dependencies —
// exactly the representation of the paper's Figure 4.
func Render(cm *core.Model) *uml.Model {
	um := uml.NewModel(cm.Name)
	r := &renderer{
		accClass:  map[*core.ACC]*uml.Class{},
		abieClass: map[*core.ABIE]*uml.Class{},
		cdtClass:  map[*core.CDT]*uml.Class{},
		qdtClass:  map[*core.QDT]*uml.Class{},
		libPkg:    map[*core.Library]*uml.Package{},
	}

	// Pass 1: packages and classifiers.
	for _, biz := range cm.BusinessLibraries {
		bizPkg := um.AddPackage(biz.Name, StBusinessLibrary)
		bizPkg.Tags = biz.Tags.Clone()
		for _, lib := range biz.Libraries {
			pkg := bizPkg.AddPackage(lib.Name, LibraryStereotype(lib.Kind))
			applyLibraryTags(pkg, lib)
			r.libPkg[lib] = pkg
			r.renderClassifiers(pkg, lib)
		}
	}

	// Pass 2: attributes, associations and dependencies, which may
	// reference classifiers from other libraries.
	for _, biz := range cm.BusinessLibraries {
		for _, lib := range biz.Libraries {
			r.renderMembers(r.libPkg[lib], lib)
		}
	}
	return um
}

type renderer struct {
	accClass  map[*core.ACC]*uml.Class
	abieClass map[*core.ABIE]*uml.Class
	cdtClass  map[*core.CDT]*uml.Class
	qdtClass  map[*core.QDT]*uml.Class
	libPkg    map[*core.Library]*uml.Package
}

func (r *renderer) renderClassifiers(pkg *uml.Package, lib *core.Library) {
	for _, acc := range lib.ACCs {
		c := pkg.AddClass(acc.Name, StACC)
		setDefinition(&c.Tags, acc.Definition)
		r.accClass[acc] = c
	}
	for _, abie := range lib.ABIEs {
		c := pkg.AddClass(abie.Name, StABIE)
		setDefinition(&c.Tags, abie.Definition)
		if abie.Version != "" {
			c.Tags.Set(TagVersionIdentifier, abie.Version)
		}
		if ctx := abie.Context(); !ctx.IsDefault() {
			c.Tags.Set(TagBusinessContext, ctx.String())
		}
		r.abieClass[abie] = c
	}
	for _, cdt := range lib.CDTs {
		c := pkg.AddClass(cdt.Name, StCDT)
		setDefinition(&c.Tags, cdt.Definition)
		r.cdtClass[cdt] = c
	}
	for _, qdt := range lib.QDTs {
		c := pkg.AddClass(qdt.Name, StQDT)
		setDefinition(&c.Tags, qdt.Definition)
		r.qdtClass[qdt] = c
	}
	for _, prim := range lib.PRIMs {
		c := pkg.AddClass(prim.Name, StPRIM)
		setDefinition(&c.Tags, prim.Definition)
	}
	for _, en := range lib.ENUMs {
		e := pkg.AddEnumeration(en.Name, StENUM)
		setDefinition(&e.Tags, en.Definition)
		for _, l := range en.Literals {
			e.AddLiteral(l.Name, l.Value)
		}
	}
}

func setDefinition(tags *uml.TaggedValues, def string) {
	if def != "" {
		tags.Set(TagDefinition, def)
	}
}

func (r *renderer) renderMembers(pkg *uml.Package, lib *core.Library) {
	for _, acc := range lib.ACCs {
		c := r.accClass[acc]
		for _, bcc := range acc.BCCs {
			a := c.AddAttribute(bcc.Name, StBCC, typeName(bcc.Type), bcc.Card)
			setDefinition(&a.Tags, bcc.Definition)
		}
		for _, ascc := range acc.ASCCs {
			assoc := &uml.Association{
				Stereotype: StASCC,
				Source:     c,
				Target:     r.accClass[ascc.Target],
				TargetRole: ascc.Role,
				TargetMult: ascc.Card,
				Kind:       ascc.Kind,
			}
			setDefinition(&assoc.Tags, ascc.Definition)
			pkg.AddAssociation(assoc)
		}
	}
	for _, abie := range lib.ABIEs {
		c := r.abieClass[abie]
		for _, bbie := range abie.BBIEs {
			a := c.AddAttribute(bbie.Name, StBBIE, typeName(bbie.Type), bbie.Card)
			setDefinition(&a.Tags, bbie.Definition)
			if bbie.BasedOn != nil && bbie.BasedOn.Name != bbie.Name {
				a.Tags.Set(TagBasedOnProperty, bbie.BasedOn.Name)
			}
		}
		for _, asbie := range abie.ASBIEs {
			assoc := &uml.Association{
				Stereotype: StASBIE,
				Source:     c,
				Target:     r.abieClass[asbie.Target],
				TargetRole: asbie.Role,
				TargetMult: asbie.Card,
				Kind:       asbie.Kind,
			}
			setDefinition(&assoc.Tags, asbie.Definition)
			if asbie.BasedOn != nil && asbie.BasedOn.Role != asbie.Role {
				assoc.Tags.Set(TagBasedOnRole, asbie.BasedOn.Role)
			}
			pkg.AddAssociation(assoc)
		}
		if acc := r.accClass[abie.BasedOn]; acc != nil {
			pkg.AddDependency(StBasedOn, c, acc)
		}
	}
	for _, cdt := range lib.CDTs {
		c := r.cdtClass[cdt]
		c.AddAttribute(cdt.Content.Name, StCON, typeName(cdt.Content.Type), uml.One)
		for _, sup := range cdt.Sups {
			a := c.AddAttribute(sup.Name, StSUP, typeName(sup.Type), sup.Card)
			setDefinition(&a.Tags, sup.Definition)
		}
	}
	for _, qdt := range lib.QDTs {
		c := r.qdtClass[qdt]
		c.AddAttribute(qdt.Content.Name, StCON, typeName(qdt.Content.Type), uml.One)
		for _, sup := range qdt.Sups {
			a := c.AddAttribute(sup.Name, StSUP, typeName(sup.Type), sup.Card)
			setDefinition(&a.Tags, sup.Definition)
		}
		if cdt := r.cdtClass[qdt.BasedOn]; cdt != nil {
			pkg.AddDependency(StBasedOn, c, cdt)
		}
	}
}

// typeName is the attribute type name of a member's type: empty for an
// untyped member, which the profile's constraints then report.
func typeName(t any) string {
	switch t := t.(type) {
	case *core.CDT:
		if t != nil {
			return t.Name
		}
	case *core.QDT:
		if t != nil {
			return t.Name
		}
	case *core.PRIM:
		if t != nil {
			return t.Name
		}
	case *core.ENUM:
		if t != nil {
			return t.Name
		}
	}
	return ""
}
