package profile

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/ocl"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmi"
)

// interpret is the reference the compiled checks are held to: every row
// of table through the OCL interpreter over Adapt, which resolves
// cross-references by walking the model, visiting elements in model
// order.
func interpret(m *uml.Model, table []Constraint) []Violation {
	var out []Violation
	check := func(c Constraint, element string, obj ocl.Object) {
		ok, err := c.Expr.EvalBool(obj)
		if err != nil || !ok {
			out = append(out, Violation{Constraint: c, Element: element, Err: err})
		}
	}
	m.WalkPackages(func(p *uml.Package) bool {
		for _, c := range table {
			if c.Target == TargetPackage && c.appliesTo(p.Stereotype) {
				check(c, p.QualifiedName(), Adapt(m, p))
			}
		}
		for _, cl := range p.Classes {
			for _, c := range table {
				if c.Target == TargetClass && c.appliesTo(cl.Stereotype) {
					check(c, cl.QualifiedName(), Adapt(m, cl))
				}
			}
		}
		for _, a := range p.Associations {
			for _, c := range table {
				if c.Target == TargetAssociation && c.appliesTo(a.Stereotype) {
					check(c, p.QualifiedName()+"::<association "+a.TargetRole+">", Adapt(m, a))
				}
			}
		}
		for _, d := range p.Dependencies {
			for _, c := range table {
				if c.Target == TargetDependency && c.appliesTo(d.Stereotype) {
					check(c, p.QualifiedName()+"::<basedOn>", Adapt(m, d))
				}
			}
		}
		for _, e := range p.Enumerations {
			for _, c := range table {
				if c.Target == TargetEnumeration && c.appliesTo(e.Stereotype) {
					check(c, e.QualifiedName(), Adapt(m, e))
				}
			}
		}
		return true
	})
	return out
}

// oracleDiff compares compiled against interpreted evaluation of the
// built-in table plus extra, by constraint ID, element, error text and
// order. It returns "" when they agree.
func oracleDiff(m *uml.Model, extra []Constraint) string {
	got := EvaluateConstraintsWith(m, extra)
	want := interpret(m, append(Constraints(), extra...))
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || violationKey(got[i]) != violationKey(want[i]) {
			return fmt.Sprintf("violation %d: compiled %s, interpreted %s (%d vs %d violations)",
				i, keyAt(got, i), keyAt(want, i), len(got), len(want))
		}
	}
	return ""
}

func violationKey(v Violation) string {
	key := v.Constraint.ID + " @ " + v.Element
	if v.Err != nil {
		key += " ! " + v.Err.Error()
	}
	return key
}

func keyAt(vs []Violation, i int) string {
	if i >= len(vs) {
		return "<none>"
	}
	return violationKey(vs[i])
}

// oracleExtras are user rules for the oracle: a house rule, an unedited
// copy of a built-in row, and a copy whose expression was edited, which
// must run as edited.
func oracleExtras(t testing.TB) []Constraint {
	t.Helper()
	house, err := NewConstraint("HOUSE-1", TargetClass, []string{StABIE}, "every ABIE carries a definition",
		"not self.definition.oclIsUndefined() and self.definition <> ''")
	if err != nil {
		t.Fatal(err)
	}
	extras := []Constraint{house}
	for _, c := range Constraints() {
		switch c.ID {
		case "LIB-1", "ENUM-2":
			extras = append(extras, c)
		case "ABIE-2":
			c.Expr = ocl.MustParse("self.basedOn->size() = 2")
			extras = append(extras, c)
		}
	}
	return extras
}

// brokenModel is TestConstraintViolations' deliberately broken model.
func brokenModel() *uml.Model {
	um := uml.NewModel("Broken")
	biz := um.AddPackage("Biz", StBusinessLibrary)
	cc := biz.AddPackage("CC", StCCLibrary)
	rogue := cc.AddClass("Rogue", StABIE)
	cc.AddEnumeration("E", StENUM)
	cdtLib := biz.AddPackage("CDTs", StCDTLibrary)
	cdtLib.Tags.Set(TagBaseURN, "urn:x:cdt")
	code := cdtLib.AddClass("Code", StCDT)
	code.AddAttribute("Content", StCON, "String", uml.One)
	code.AddAttribute("Content2", StCON, "String", uml.One)
	code.AddAttribute("Bad", StSUP, "Missing", uml.One)
	primLib := biz.AddPackage("Prims", StPRIMLibrary)
	primLib.Tags.Set(TagBaseURN, "urn:x:prim")
	primLib.AddClass("String", StPRIM).AddAttribute("oops", StBCC, "String", uml.One)
	bieLib := biz.AddPackage("BIEs", StBIELibrary)
	bieLib.Tags.Set(TagBaseURN, "urn:x:bie")
	lonely := bieLib.AddClass("Lonely", StABIE)
	lonely.AddAttribute("X", StBBIE, "Code", uml.One)
	bieLib.AddAssociation(&uml.Association{
		Stereotype: StASBIE, Source: lonely, Target: rogue, TargetMult: uml.One, Kind: uml.AggregationComposite,
	})
	bieLib.AddDependency(StBasedOn, lonely, code)
	return um
}

func importEasyBiz(t testing.TB) *uml.Model {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden/EasyBiz.xmi")
	if err != nil {
		t.Fatal(err)
	}
	um, _, err := xmi.ImportBytes(data, xmi.ImportOptions{Limits: limits.Default(), Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	return um
}

// TestConstraintOracle: on every fixture, the broken model and the
// EasyBiz import, compiled and interpreted evaluation agree, with and
// without extra rules.
func TestConstraintOracle(t *testing.T) {
	extras := oracleExtras(t)
	check := func(name string, um *uml.Model) {
		for _, extra := range [][]Constraint{nil, extras} {
			if d := oracleDiff(um, extra); d != "" {
				t.Errorf("%s (%d extras): %s", name, len(extra), d)
			}
		}
	}
	for _, c := range fixture.Corpus() {
		check(c.Name, Render(c.Model))
	}
	check("broken", brokenModel())
	check("EasyBiz.xmi", importEasyBiz(t))
	if len(EvaluateConstraints(brokenModel())) == 0 {
		t.Error("the broken model reports no violations")
	}
}

// TestConstraintOracleMutations: compiled and interpreted evaluation
// agree on seeded mutations of the rendered fixtures, and between them
// the mutations violate every built-in row, with and without an
// evaluation error.
func TestConstraintOracleMutations(t *testing.T) {
	bases := fixture.Corpus()[:4] // HoardingPermit, PurchaseOrder, Figure1, syn10
	extras := oracleExtras(t)
	const runs = 1200
	rng := rand.New(rand.NewSource(20071))
	seen := map[string]int{}
	violated := map[string]bool{}
	for i := 0; i < runs; i++ {
		base := bases[i%len(bases)]
		mu := &mutator{r: rng, m: Render(base.Model)}
		var applied []string
		for n := 1 + rng.Intn(4); n > 0; n-- {
			name := mu.mutate()
			applied = append(applied, name)
			seen[name]++
		}
		var extra []Constraint
		if i%4 == 0 {
			extra = extras
		}
		if d := oracleDiff(mu.m, extra); d != "" {
			t.Fatalf("run %d on %s after %v: %s", i, base.Name, applied, d)
		}
		for _, v := range EvaluateConstraints(mu.m) {
			violated[v.Constraint.ID] = true
			violated[fmt.Sprintf("%s error %t", v.Constraint.ID, v.Err != nil)] = true
		}
	}
	for _, name := range mutationNames {
		if seen[name] == 0 {
			t.Errorf("mutation %q never applied", name)
		}
	}
	for _, c := range constraintTable {
		if !violated[c.ID] {
			t.Errorf("no mutation violates %s", c.ID)
		}
	}
	for _, key := range []string{"LIB-1 error true", "LIB-1 error false"} {
		if !violated[key] {
			t.Errorf("no mutation gives a %s violation", key)
		}
	}
}

// mutationNames lists the mutations mutator.mutate draws from.
var mutationNames = []string{
	"stereotype", "blank", "baseURN", "retype", "shared name", "literals",
	"nil end", "dependency", "move", "nest",
}

// oracleStereotypes are the stereotypes mutations assign: every profile
// stereotype, an unknown one and the empty one.
var oracleStereotypes = []string{
	StBusinessLibrary, StCCLibrary, StBIELibrary, StCDTLibrary, StQDTLibrary, StENUMLibrary,
	StPRIMLibrary, StDOCLibrary, StACC, StABIE, StCDT, StQDT, StPRIM, StENUM, StBCC, StBBIE,
	StCON, StSUP, StASCC, StASBIE, StBasedOn, "Bogus", "",
}

// mutator applies random model edits of the kinds validation exists to
// report.
type mutator struct {
	r *rand.Rand
	m *uml.Model
}

func (mu *mutator) packages() []*uml.Package {
	var out []*uml.Package
	mu.m.WalkPackages(func(p *uml.Package) bool { out = append(out, p); return true })
	return out
}

func (mu *mutator) pkg() *uml.Package {
	ps := mu.packages()
	return ps[mu.r.Intn(len(ps))]
}

func (mu *mutator) classes() []*uml.Class {
	var out []*uml.Class
	mu.m.WalkClasses(func(c *uml.Class) bool { out = append(out, c); return true })
	return out
}

func (mu *mutator) class() *uml.Class {
	cs := mu.classes()
	if len(cs) == 0 {
		return mu.pkg().AddClass("Fresh", StABIE)
	}
	return cs[mu.r.Intn(len(cs))]
}

func (mu *mutator) enumeration() *uml.Enumeration {
	var es []*uml.Enumeration
	mu.m.WalkEnumerations(func(e *uml.Enumeration) bool { es = append(es, e); return true })
	if len(es) == 0 {
		return mu.pkg().AddEnumeration("FreshEnum", StENUM).AddLiteral("A", "a")
	}
	return es[mu.r.Intn(len(es))]
}

func (mu *mutator) association() *uml.Association {
	var as []*uml.Association
	mu.m.WalkAssociations(func(a *uml.Association) bool { as = append(as, a); return true })
	if len(as) == 0 {
		return mu.pkg().AddAssociation(&uml.Association{Stereotype: StASBIE, Source: mu.class(), Target: mu.class()})
	}
	return as[mu.r.Intn(len(as))]
}

func (mu *mutator) attribute() *uml.Attribute {
	for tries := 0; tries < 20; tries++ {
		if c := mu.class(); len(c.Attributes) > 0 {
			return c.Attributes[mu.r.Intn(len(c.Attributes))]
		}
	}
	return mu.class().AddAttribute("Fresh", StBBIE, "Text", uml.One)
}

func (mu *mutator) stereotype() string { return oracleStereotypes[mu.r.Intn(len(oracleStereotypes))] }

// classWith returns a class of the given stereotype, or any class.
func (mu *mutator) classWith(st string) *uml.Class {
	var match []*uml.Class
	for _, c := range mu.classes() {
		if c.Stereotype == st {
			match = append(match, c)
		}
	}
	if len(match) == 0 {
		return mu.class()
	}
	return match[mu.r.Intn(len(match))]
}

// mutate applies one random mutation and returns its name.
func (mu *mutator) mutate() string {
	name := mutationNames[mu.r.Intn(len(mutationNames))]
	r := mu.r
	switch name {
	case "stereotype":
		st := mu.stereotype()
		switch r.Intn(6) {
		case 0:
			mu.pkg().Stereotype = st
		case 1:
			mu.class().Stereotype = st
		case 2:
			mu.attribute().Stereotype = st
		case 3:
			mu.association().Stereotype = st
		case 4:
			mu.enumeration().Stereotype = st
		default:
			p := mu.pkg()
			if len(p.Dependencies) > 0 {
				p.Dependencies[r.Intn(len(p.Dependencies))].Stereotype = st
			}
		}
	case "blank":
		switch r.Intn(5) {
		case 0:
			mu.pkg().Name = ""
		case 1:
			mu.class().Name = ""
		case 2:
			mu.attribute().Name = ""
		case 3:
			mu.association().TargetRole = ""
		default:
			mu.enumeration().Name = ""
		}
	case "baseURN":
		p := mu.pkg()
		if r.Intn(2) == 0 {
			delete(p.Tags, TagBaseURN)
		} else {
			p.Tags.Set(TagBaseURN, "")
		}
	case "retype":
		a := mu.attribute()
		switch r.Intn(8) {
		case 0:
			a.TypeName = "NoSuchType"
		case 1:
			a.TypeName = ""
		case 2:
			a.TypeName = mu.class().QualifiedName()
		case 3:
			a.TypeName = "No::Such::Type"
		case 4:
			a.TypeName = mu.enumeration().Name
		case 5:
			a.TypeName = mu.classWith(StPRIM).Name
		case 6:
			a.TypeName = mu.classWith(StABIE).Name
		default:
			a.TypeName = mu.enumeration().QualifiedName()
		}
	case "shared name":
		p := mu.pkg()
		if r.Intn(2) == 0 {
			p.AddClass(mu.enumeration().Name, mu.stereotype())
		} else if r.Intn(2) == 0 {
			p.AddEnumeration(mu.class().Name, mu.stereotype()).AddLiteral("X", "x")
		} else {
			p.AddClass(mu.class().Name, mu.stereotype())
		}
	case "literals":
		e := mu.enumeration()
		switch {
		case len(e.Literals) == 0 || r.Intn(3) == 0:
			e.AddLiteral("Dup", "1").AddLiteral("Dup", "2")
		case r.Intn(2) == 0:
			e.Literals = append(e.Literals, e.Literals[r.Intn(len(e.Literals))])
		default:
			i := r.Intn(len(e.Literals))
			e.Literals = append(e.Literals[:i:i], e.Literals[i+1:]...)
		}
	case "nil end":
		a := mu.association()
		if r.Intn(2) == 0 {
			a.Source = nil
		} else {
			a.Target = nil
		}
	case "dependency":
		p := mu.pkg()
		var supplier uml.Classifier
		switch r.Intn(6) {
		case 0:
			supplier = mu.enumeration()
		case 1:
			supplier = nil
		case 2:
			supplier = (*uml.Class)(nil)
		case 3:
			supplier = (*uml.Enumeration)(nil)
		default:
			supplier = mu.class()
		}
		var client uml.Classifier = mu.class()
		if r.Intn(4) == 0 {
			client, supplier = supplier, client
		}
		st := StBasedOn
		if r.Intn(3) == 0 {
			st = mu.stereotype()
		}
		p.AddDependency(st, client, supplier)
	case "move":
		// The moved element keeps its owner, as when a tool edits the
		// containment but not the back-reference.
		from, to := mu.pkg(), mu.pkg()
		if from == to {
			return name
		}
		switch r.Intn(4) {
		case 0:
			from.Classes, to.Classes = moveOne(r, from.Classes, to.Classes)
		case 1:
			from.Associations, to.Associations = moveOne(r, from.Associations, to.Associations)
		case 2:
			from.Dependencies, to.Dependencies = moveOne(r, from.Dependencies, to.Dependencies)
		default:
			from.Enumerations, to.Enumerations = moveOne(r, from.Enumerations, to.Enumerations)
		}
	case "nest":
		parent := mu.pkg()
		if r.Intn(2) == 0 {
			child := parent.AddPackage("Nested", mu.stereotype())
			child.Tags.Set(TagBaseURN, "urn:nested")
			child.AddClass("Inner", mu.stereotype()).AddAttribute("V", mu.stereotype(), "Text", uml.One)
			return name
		}
		// Move a package under another one outside its own subtree.
		child := mu.pkg()
		if child == parent || within(parent, child) {
			return name
		}
		if contains(mu.m.Packages, child) {
			mu.m.Packages = remove(mu.m.Packages, child)
		}
		mu.m.WalkPackages(func(p *uml.Package) bool {
			p.Packages = remove(p.Packages, child)
			return true
		})
		parent.Packages = append(parent.Packages, child)
	}
	return name
}

// moveOne moves a random element of from to the end of to.
func moveOne[E any](r *rand.Rand, from, to []E) ([]E, []E) {
	if len(from) == 0 {
		return from, to
	}
	i := r.Intn(len(from))
	e := from[i]
	from = append(from[:i:i], from[i+1:]...)
	return from, append(to, e)
}

// within reports whether p is q or lies in q's subtree.
func within(p, q *uml.Package) bool {
	if p == q {
		return true
	}
	for _, c := range q.Packages {
		if within(p, c) {
			return true
		}
	}
	return false
}

func contains(ps []*uml.Package, p *uml.Package) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

func remove(ps []*uml.Package, p *uml.Package) []*uml.Package {
	out := ps[:0:0]
	for _, q := range ps {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

// FuzzConstraintOracle: on any XMI document the lenient import accepts,
// compiled and interpreted evaluation of the built-in table agree.
func FuzzConstraintOracle(f *testing.F) {
	for _, c := range fixture.Corpus()[:4] {
		if c.Name == "Figure1" {
			continue
		}
		var buf bytes.Buffer
		if err := xmi.Export(Render(c.Model), &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, doc := range oracleSeedDocuments {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		um, _, err := xmi.ImportBytes(data, xmi.ImportOptions{Limits: limits.Default(), Lenient: true})
		if err != nil {
			return
		}
		if d := oracleDiff(um, nil); d != "" {
			t.Fatal(d)
		}
	})
}

// oracleSeedDocuments are hand-written XMI documents with the shapes the
// fixtures never render: qualified type names, enumeration-typed BBIEs,
// duplicate literals, dependencies that are not basedOn, and nested
// BusinessLibraries.
var oracleSeedDocuments = []string{
	xmiDoc(`<packagedElement xmi:type="uml:Package" xmi:id="b" name="B" stereotype="BusinessLibrary">
  <packagedElement xmi:type="uml:Package" xmi:id="p" name="P" stereotype="PRIMLibrary">
    <taggedValue tag="baseURN" value="urn:p"/>
    <packagedElement xmi:type="uml:Class" xmi:id="s" name="String" stereotype="PRIM"/>
  </packagedElement>
  <packagedElement xmi:type="uml:Package" xmi:id="c" name="C" stereotype="CDTLibrary">
    <taggedValue tag="baseURN" value="urn:c"/>
    <packagedElement xmi:type="uml:Class" xmi:id="t" name="Text" stereotype="CDT">
      <ownedAttribute xmi:id="t1" name="Content" stereotype="CON" type="B::P::String" lower="1" upper="1"/>
      <ownedAttribute xmi:id="t2" name="Language" stereotype="SUP" type="P::String" lower="0" upper="1"/>
    </packagedElement>
  </packagedElement>
</packagedElement>`),
	xmiDoc(`<packagedElement xmi:type="uml:Package" xmi:id="b" name="B" stereotype="BusinessLibrary">
  <packagedElement xmi:type="uml:Package" xmi:id="e" name="E" stereotype="ENUMLibrary">
    <taggedValue tag="baseURN" value="urn:e"/>
    <packagedElement xmi:type="uml:Enumeration" xmi:id="k" name="Kind" stereotype="ENUM">
      <ownedLiteral name="A" value="a"/>
      <ownedLiteral name="A" value="again"/>
    </packagedElement>
    <packagedElement xmi:type="uml:Enumeration" xmi:id="n" name="None" stereotype="ENUM"/>
  </packagedElement>
  <packagedElement xmi:type="uml:Package" xmi:id="d" name="D" stereotype="BIELibrary">
    <taggedValue tag="baseURN" value="urn:d"/>
    <packagedElement xmi:type="uml:Class" xmi:id="x" name="X" stereotype="ABIE">
      <ownedAttribute xmi:id="x1" name="K" stereotype="BBIE" type="Kind" lower="1" upper="1"/>
    </packagedElement>
    <packagedElement xmi:type="uml:Class" xmi:id="Kc" name="Kind" stereotype="ACC"/>
  </packagedElement>
</packagedElement>`),
	xmiDoc(`<packagedElement xmi:type="uml:Package" xmi:id="b" name="B" stereotype="BusinessLibrary">
  <packagedElement xmi:type="uml:Package" xmi:id="cc" name="CC" stereotype="CCLibrary">
    <packagedElement xmi:type="uml:Class" xmi:id="a" name="A" stereotype="ACC"/>
    <packagedElement xmi:type="uml:Class" xmi:id="z" name="Z" stereotype="ABIE"/>
    <packagedElement xmi:type="uml:Dependency" xmi:id="d1" stereotype="trace" client="z" supplier="a"/>
    <packagedElement xmi:type="uml:Dependency" xmi:id="d2" stereotype="basedOn" client="a" supplier="z"/>
    <packagedElement xmi:type="uml:Dependency" xmi:id="d3" stereotype="basedOn" client="z" supplier="missing"/>
    <packagedElement xmi:type="uml:Association" xmi:id="s1" stereotype="ASBIE" source="z" target="a" role="" aggregation="composite" lower="1" upper="1"/>
  </packagedElement>
</packagedElement>`),
	xmiDoc(`<packagedElement xmi:type="uml:Package" xmi:id="b" name="B" stereotype="BusinessLibrary">
  <packagedElement xmi:type="uml:Package" xmi:id="b2" name="Inner" stereotype="BusinessLibrary">
    <packagedElement xmi:type="uml:Package" xmi:id="q" name="Q" stereotype="QDTLibrary">
      <taggedValue tag="baseURN" value=""/>
      <packagedElement xmi:type="uml:Class" xmi:id="qd" name="Q1" stereotype="QDT"/>
    </packagedElement>
    <packagedElement xmi:type="uml:Package" xmi:id="o" name="Other" stereotype="Plain"/>
  </packagedElement>
</packagedElement>`),
}

func xmiDoc(body string) string {
	return `<?xml version="1.0" encoding="UTF-8"?>
<xmi:XMI xmi:version="2.1" xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
<uml:Model xmi:id="model" name="Seed">
` + body + `
</uml:Model>
</xmi:XMI>
`
}

// TestOracleSeedsImport keeps the hand-written fuzz seeds importable, so
// the fuzz target starts from the shapes they were written for.
func TestOracleSeedsImport(t *testing.T) {
	for i, doc := range oracleSeedDocuments {
		um, _, err := xmi.ImportBytes([]byte(doc), xmi.ImportOptions{Limits: limits.Default(), Lenient: true})
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if len(EvaluateConstraints(um)) == 0 {
			t.Errorf("seed %d violates no constraint", i)
		}
	}
}
