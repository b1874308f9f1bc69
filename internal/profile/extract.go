package profile

import (
	"fmt"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/uml"
)

// Extract converts a stereotyped UML model (drawn with the profile, or
// imported from XMI) back into the typed CCTS model. Structural
// impossibilities — unresolvable type references, missing basedOn
// dependencies, illegal restrictions — abort the extraction with an
// error, mirroring the paper's generator behaviour: "In case the UML
// model is erroneous, the generation aborts and the user is presented an
// error message." Run profile.EvaluateConstraints first for a complete
// diagnosis instead of the first error.
func Extract(um *uml.Model) (*core.Model, error) {
	x := &extractor{
		um:       um,
		ix:       uml.NewIndex(um),
		cm:       core.NewModel(um.Name),
		libOfPkg: map[*uml.Package]*core.Library{},
		prims:    map[*uml.Class]*core.PRIM{},
		enums:    map[*uml.Enumeration]*core.ENUM{},
		cdts:     map[*uml.Class]*core.CDT{},
		qdts:     map[*uml.Class]*core.QDT{},
		accs:     map[*uml.Class]*core.ACC{},
		abies:    map[*uml.Class]*core.ABIE{},
	}
	if err := x.packages(); err != nil {
		return nil, err
	}
	// Classifier passes ordered by dependency: PRIM -> ENUM -> CDT ->
	// QDT -> ACC -> ABIE, then the member passes.
	for _, pass := range []func() error{
		x.primPass, x.enumPass, x.cdtPass, x.qdtPass,
		x.accPass, x.asccPass, x.abiePass, x.asbiePass,
	} {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	return x.cm, nil
}

type extractor struct {
	um *uml.Model
	ix *uml.Index // resolves attribute types and basedOn suppliers
	cm *core.Model

	libOfPkg map[*uml.Package]*core.Library
	prims    map[*uml.Class]*core.PRIM
	enums    map[*uml.Enumeration]*core.ENUM
	cdts     map[*uml.Class]*core.CDT
	qdts     map[*uml.Class]*core.QDT
	accs     map[*uml.Class]*core.ACC
	abies    map[*uml.Class]*core.ABIE
}

// packages maps BusinessLibrary packages and their library sub-packages.
func (x *extractor) packages() error {
	var err error
	x.um.WalkPackages(func(p *uml.Package) bool {
		switch {
		case p.Stereotype == StBusinessLibrary:
			biz := x.cm.AddBusinessLibrary(p.Name)
			biz.Tags = p.Tags.Clone()
			for _, child := range p.Packages {
				kind, ok := KindForStereotype(child.Stereotype)
				if !ok {
					if child.Stereotype == StBusinessLibrary {
						continue // walked separately
					}
					err = fmt.Errorf("profile: package %q has stereotype %q, expected a library stereotype",
						child.QualifiedName(), child.Stereotype)
					return false
				}
				lib := biz.AddLibrary(kind, child.Name, child.Tags.Get(TagBaseURN))
				lib.NamespacePrefix = child.Tags.Get(TagNamespacePrefix)
				lib.Version = child.Tags.Get(TagVersionIdentifier)
				lib.Tags = child.Tags.Clone()
				x.libOfPkg[child] = lib
			}
		case IsLibraryStereotype(p.Stereotype):
			if p.Parent() == nil || p.Parent().Stereotype != StBusinessLibrary {
				err = fmt.Errorf("profile: library package %q must be owned by a BusinessLibrary package",
					p.QualifiedName())
				return false
			}
		}
		return true
	})
	return err
}

// simpleName strips a qualified prefix: "types:draft:cdt:1.0::Code" ->
// "Code".
func simpleName(name string) string {
	if i := strings.LastIndex(name, "::"); i >= 0 {
		return name[i+2:]
	}
	return name
}

func (x *extractor) forEachLibClass(kind core.LibraryKind, st string, fn func(*core.Library, *uml.Class) error) error {
	for pkg, lib := range x.libOfPkg {
		if lib.Kind != kind {
			continue
		}
		for _, c := range pkg.Classes {
			if c.Stereotype != st {
				return fmt.Errorf("profile: class %q in %s %q has stereotype %q, expected %q",
					c.Name, lib.Kind, lib.Name, c.Stereotype, st)
			}
			if err := fn(lib, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (x *extractor) primPass() error {
	return x.forEachLibClass(core.KindPRIMLibrary, StPRIM, func(lib *core.Library, c *uml.Class) error {
		p, err := lib.AddPRIM(c.Name)
		if err != nil {
			return err
		}
		p.Definition = c.Tags.Get(TagDefinition)
		x.prims[c] = p
		return nil
	})
}

func (x *extractor) enumPass() error {
	for pkg, lib := range x.libOfPkg {
		if lib.Kind != core.KindENUMLibrary {
			continue
		}
		for _, e := range pkg.Enumerations {
			if e.Stereotype != StENUM {
				return fmt.Errorf("profile: enumeration %q in ENUMLibrary %q has stereotype %q",
					e.Name, lib.Name, e.Stereotype)
			}
			en, err := lib.AddENUM(e.Name)
			if err != nil {
				return err
			}
			en.Definition = e.Tags.Get(TagDefinition)
			for _, l := range e.Literals {
				en.AddLiteral(l.Name, l.Value)
			}
			x.enums[e] = en
		}
	}
	return nil
}

// componentType resolves a CON/SUP attribute type to a PRIM or ENUM.
func (x *extractor) componentType(a *uml.Attribute) (core.ComponentType, error) {
	cls, err := x.ix.ResolveType(simpleName(a.TypeName))
	if err != nil {
		return nil, fmt.Errorf("profile: attribute %q: %w", a.Name, err)
	}
	switch t := cls.(type) {
	case *uml.Class:
		if p, ok := x.prims[t]; ok {
			return p, nil
		}
	case *uml.Enumeration:
		if e, ok := x.enums[t]; ok {
			return e, nil
		}
	}
	return nil, fmt.Errorf("profile: attribute %q type %q is neither PRIM nor ENUM", a.Name, a.TypeName)
}

// splitComponents separates a data type class's attributes into the
// single CON and the SUPs.
func splitComponents(c *uml.Class) (con *uml.Attribute, sups []*uml.Attribute, err error) {
	for _, a := range c.Attributes {
		switch a.Stereotype {
		case StCON:
			if con != nil {
				return nil, nil, fmt.Errorf("profile: data type %q has more than one CON", c.Name)
			}
			con = a
		case StSUP:
			sups = append(sups, a)
		default:
			return nil, nil, fmt.Errorf("profile: data type %q has attribute %q with stereotype %q, expected CON or SUP",
				c.Name, a.Name, a.Stereotype)
		}
	}
	if con == nil {
		return nil, nil, fmt.Errorf("profile: data type %q has no CON content component", c.Name)
	}
	return con, sups, nil
}

func (x *extractor) cdtPass() error {
	return x.forEachLibClass(core.KindCDTLibrary, StCDT, func(lib *core.Library, c *uml.Class) error {
		con, sups, err := splitComponents(c)
		if err != nil {
			return err
		}
		ct, err := x.componentType(con)
		if err != nil {
			return err
		}
		cdt, err := lib.AddCDT(c.Name, core.ContentComponent{Name: con.Name, Type: ct})
		if err != nil {
			return err
		}
		cdt.Definition = c.Tags.Get(TagDefinition)
		for _, s := range sups {
			st, err := x.componentType(s)
			if err != nil {
				return err
			}
			cdt.AddSup(s.Name, st, s.Mult)
		}
		x.cdts[c] = cdt
		return nil
	})
}

// basedOnSupplier finds the single basedOn supplier class of a client
// class.
func (x *extractor) basedOnSupplier(c *uml.Class) (*uml.Class, error) {
	var suppliers []*uml.Class
	for _, d := range x.ix.DependenciesFrom(c) {
		if d.Stereotype != StBasedOn {
			continue
		}
		s, ok := d.Supplier.(*uml.Class)
		if !ok {
			return nil, fmt.Errorf("profile: basedOn supplier of %q is not a class", c.Name)
		}
		suppliers = append(suppliers, s)
	}
	if len(suppliers) != 1 {
		return nil, fmt.Errorf("profile: %q has %d basedOn dependencies, expected exactly 1", c.Name, len(suppliers))
	}
	return suppliers[0], nil
}

func (x *extractor) qdtPass() error {
	return x.forEachLibClass(core.KindQDTLibrary, StQDT, func(lib *core.Library, c *uml.Class) error {
		base, err := x.basedOnSupplier(c)
		if err != nil {
			return err
		}
		cdt, ok := x.cdts[base]
		if !ok {
			return fmt.Errorf("profile: QDT %q is based on %q, which is not a CDT", c.Name, base.Name)
		}
		con, sups, err := splitComponents(c)
		if err != nil {
			return err
		}
		ct, err := x.componentType(con)
		if err != nil {
			return err
		}
		qdt, err := lib.AddQDT(c.Name, cdt, core.ContentComponent{Name: con.Name, Type: ct})
		if err != nil {
			return err
		}
		qdt.Definition = c.Tags.Get(TagDefinition)
		for _, s := range sups {
			st, err := x.componentType(s)
			if err != nil {
				return err
			}
			qdt.Sups = append(qdt.Sups, core.SupplementaryComponent{
				Name: s.Name, Type: st, Card: s.Mult,
				Definition: s.Tags.Get(TagDefinition),
			})
		}
		if err := qdt.CheckRestriction(); err != nil {
			return err
		}
		x.qdts[c] = qdt
		return nil
	})
}

// dataType resolves a BCC/BBIE attribute type to a CDT or QDT.
func (x *extractor) dataType(a *uml.Attribute) (core.DataType, error) {
	cls, err := x.ix.ResolveType(simpleName(a.TypeName))
	if err != nil {
		return nil, fmt.Errorf("profile: attribute %q: %w", a.Name, err)
	}
	c, ok := cls.(*uml.Class)
	if !ok {
		return nil, fmt.Errorf("profile: attribute %q type %q is not a data type class", a.Name, a.TypeName)
	}
	if cdt, ok := x.cdts[c]; ok {
		return cdt, nil
	}
	if qdt, ok := x.qdts[c]; ok {
		return qdt, nil
	}
	return nil, fmt.Errorf("profile: attribute %q type %q is neither CDT nor QDT", a.Name, a.TypeName)
}

func (x *extractor) accPass() error {
	return x.forEachLibClass(core.KindCCLibrary, StACC, func(lib *core.Library, c *uml.Class) error {
		acc, err := lib.AddACC(c.Name)
		if err != nil {
			return err
		}
		acc.Definition = c.Tags.Get(TagDefinition)
		for _, a := range c.Attributes {
			if a.Stereotype != StBCC {
				return fmt.Errorf("profile: ACC %q attribute %q has stereotype %q, expected BCC",
					c.Name, a.Name, a.Stereotype)
			}
			dt, err := x.dataType(a)
			if err != nil {
				return err
			}
			cdt, ok := dt.(*core.CDT)
			if !ok {
				return fmt.Errorf("profile: BCC %q of ACC %q must be typed by a CDT, got QDT %q",
					a.Name, c.Name, dt.TypeName())
			}
			bcc, err := acc.AddBCC(a.Name, cdt, a.Mult)
			if err != nil {
				return err
			}
			bcc.Definition = a.Tags.Get(TagDefinition)
		}
		x.accs[c] = acc
		return nil
	})
}

func (x *extractor) asccPass() error {
	var err error
	x.um.WalkAssociations(func(a *uml.Association) bool {
		if a.Stereotype != StASCC {
			return true
		}
		src, ok1 := x.accs[a.Source]
		dst, ok2 := x.accs[a.Target]
		if !ok1 || !ok2 {
			err = fmt.Errorf("profile: ASCC %q does not connect two ACCs", a.TargetRole)
			return false
		}
		ascc, aerr := src.AddASCC(a.TargetRole, dst, a.TargetMult, a.Kind)
		if aerr != nil {
			err = aerr
			return false
		}
		ascc.Definition = a.Tags.Get(TagDefinition)
		return true
	})
	return err
}

func (x *extractor) abiePass() error {
	return x.forEachLibClass(core.KindBIELibrary, StABIE, x.extractABIE)
}

func (x *extractor) extractABIE(lib *core.Library, c *uml.Class) error {
	base, err := x.basedOnSupplier(c)
	if err != nil {
		return err
	}
	acc, ok := x.accs[base]
	if !ok {
		return fmt.Errorf("profile: ABIE %q is based on %q, which is not an ACC", c.Name, base.Name)
	}
	abie, err := lib.AddABIE(c.Name, acc)
	if err != nil {
		return err
	}
	abie.Definition = c.Tags.Get(TagDefinition)
	abie.Version = c.Tags.Get(TagVersionIdentifier)
	if ctxSpec := c.Tags.Get(TagBusinessContext); ctxSpec != "" {
		ctx, err := core.ParseContext(ctxSpec)
		if err != nil {
			return fmt.Errorf("profile: ABIE %q: %w", c.Name, err)
		}
		abie.SetContext(ctx)
	}
	for _, a := range c.Attributes {
		if a.Stereotype != StBBIE {
			return fmt.Errorf("profile: ABIE %q attribute %q has stereotype %q, expected BBIE",
				c.Name, a.Name, a.Stereotype)
		}
		dt, err := x.dataType(a)
		if err != nil {
			return err
		}
		bccName := a.Tags.Get(TagBasedOnProperty)
		if bccName == "" {
			bccName = a.Name
		}
		bcc := acc.FindBCC(bccName)
		if bcc == nil {
			return fmt.Errorf("profile: BBIE %q of ABIE %q: underlying ACC %q has no BCC %q",
				a.Name, c.Name, acc.Name, bccName)
		}
		bbie, err := abie.AddBBIE(a.Name, bcc, dt, a.Mult)
		if err != nil {
			return err
		}
		bbie.Definition = a.Tags.Get(TagDefinition)
	}
	x.abies[c] = abie
	return nil
}

func (x *extractor) asbiePass() error {
	// DOC libraries also hold ABIEs; extract them before their ASBIEs.
	if err := x.forEachLibClass(core.KindDOCLibrary, StABIE, x.extractABIE); err != nil {
		return err
	}
	var err error
	x.um.WalkAssociations(func(a *uml.Association) bool {
		if a.Stereotype != StASBIE {
			return true
		}
		src, ok1 := x.abies[a.Source]
		dst, ok2 := x.abies[a.Target]
		if !ok1 || !ok2 {
			err = fmt.Errorf("profile: ASBIE %q does not connect two ABIEs", a.TargetRole)
			return false
		}
		ascc, ferr := x.findASCC(src, dst, a)
		if ferr != nil {
			err = ferr
			return false
		}
		asbie, aerr := src.AddASBIE(a.TargetRole, ascc, dst, a.TargetMult, a.Kind)
		if aerr != nil {
			err = aerr
			return false
		}
		asbie.Definition = a.Tags.Get(TagDefinition)
		return true
	})
	return err
}

// findASCC locates the ASCC an ASBIE restricts: by the recorded
// basedOnRole tag, by identical role name, or — when unambiguous — as
// the single ASCC pointing at the target's underlying ACC.
func (x *extractor) findASCC(src *core.ABIE, dst *core.ABIE, a *uml.Association) (*core.ASCC, error) {
	acc := src.BasedOn
	targetACC := dst.BasedOn
	role := a.Tags.Get(TagBasedOnRole)
	if role == "" {
		role = a.TargetRole
	}
	if ascc := acc.FindASCC(role, targetACC.Name); ascc != nil {
		return ascc, nil
	}
	var candidates []*core.ASCC
	for _, s := range acc.ASCCs {
		if s.Target == targetACC {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 1 {
		return candidates[0], nil
	}
	return nil, fmt.Errorf("profile: ASBIE %q of ABIE %q: cannot resolve underlying ASCC on ACC %q (role %q, target ACC %q, %d candidates)",
		a.TargetRole, src.Name, acc.Name, role, targetACC.Name, len(candidates))
}
