package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/uml"
)

// model is one XMI document the benchmark feeds the program, with the
// generation parameters ccgen and /v1/generate take for it.
type model struct {
	Class    string // op class, e.g. "hoardingpermit" or "syn300"
	XMI      []byte
	Library  string
	Root     string
	Annotate bool
	// GoldenDirs maps a target to the directory of its committed golden
	// files; generated files of that target must equal them.
	GoldenDirs map[string]string
}

// The paper's fixtures: the HoardingPermit document of Figure 4 and the
// two-context purchase order. Their content is fixed, so their outputs
// are checked against the goldens of testdata/golden.
const (
	hpClass = "hoardingpermit"
	poClass = "purchaseorder"
)

// hpModelName is the model name the HoardingPermit XMI carries; serve
// misses replace it with a seeded name of the same length, which gives a
// fresh content key at identical cost and identical generated files.
const hpModelName = "EasyBiz"

func exportXMI(m *core.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := ccts.ExportXMI(m, &buf); err != nil {
		return nil, fmt.Errorf("exporting %s as XMI: %w", m.Name, err)
	}
	return buf.Bytes(), nil
}

// paperModels builds the two fixture models.
func paperModels() (hp, po *model, err error) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		return nil, nil, err
	}
	data, err := exportXMI(f.Model)
	if err != nil {
		return nil, nil, err
	}
	hp = &model{
		Class: hpClass, XMI: data,
		Library: "EB005-HoardingPermit", Root: "HoardingPermit", Annotate: true,
		GoldenDirs: map[string]string{"xsd": filepath.Join("testdata", "golden")},
	}
	p, err := fixture.BuildPurchaseOrder()
	if err != nil {
		return nil, nil, err
	}
	if data, err = exportXMI(p.Model); err != nil {
		return nil, nil, err
	}
	po = &model{Class: poClass, XMI: data, Library: "EUOrder", Root: "EU_Order", GoldenDirs: map[string]string{}}
	for _, t := range []string{"xsd", "jsonschema", "proto"} {
		po.GoldenDirs[t] = filepath.Join("testdata", "golden", "purchaseorder", t)
	}
	return hp, po, nil
}

// letters returns n seeded letters, the first one upper case.
func letters(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	b[0] -= 'a' - 'A'
	return string(b)
}

// synthSpec sizes one synthetic chained model: ABIEs aggregates of BBIEs
// basic entities each, the first one carrying Extras more optional ones.
// Prefix and Qualifier are the seeded names; they have a fixed length,
// so two specs of the same size give XMI documents of the same length.
type synthSpec struct {
	ABIEs, BBIEs, Extras int
	Prefix, Qualifier    string
}

// newSynthSpec draws the names of a spec from rng.
func newSynthSpec(rng *rand.Rand, abies, bbies int) synthSpec {
	return synthSpec{ABIEs: abies, BBIEs: bbies, Prefix: "Agg" + letters(rng, 5), Qualifier: letters(rng, 4)}
}

// buildSynthetic builds the model of spec: the standard catalog, a CC
// library of chained ACCs, the BIE library restricting them and a DOC
// library whose root "Document" starts the chain.
func buildSynthetic(spec synthSpec) (*core.Model, error) {
	opt := core.Cardinality{Lower: 0, Upper: 1}
	m := core.NewModel("Synthetic")
	biz := m.AddBusinessLibrary("Synthetic")
	cat, err := catalog.Install(biz)
	if err != nil {
		return nil, err
	}
	ccLib := biz.AddLibrary(core.KindCCLibrary, "SynCC", "urn:syn:cc")
	ccLib.Version = "1.0"
	bieLib := biz.AddLibrary(core.KindBIELibrary, "SynBIE", "urn:syn:bie")
	bieLib.Version = "1.0"
	docLib := biz.AddLibrary(core.KindDOCLibrary, "SynDoc", "urn:syn:doc")
	docLib.Version = "1.0"

	text := cat.CDT(catalog.CDTText)
	fields := func(i int) []string {
		var out []string
		for j := 0; j < spec.BBIEs; j++ {
			out = append(out, fmt.Sprintf("Field%03d", j))
		}
		if i == 0 {
			for j := 0; j < spec.Extras; j++ {
				out = append(out, fmt.Sprintf("Extra%03d", j))
			}
		}
		return out
	}
	accs := make([]*core.ACC, spec.ABIEs)
	for i := range accs {
		acc, err := ccLib.AddACC(fmt.Sprintf("%s%04d", spec.Prefix, i))
		if err != nil {
			return nil, err
		}
		for _, f := range fields(i) {
			if _, err := acc.AddBCC(f, text, opt); err != nil {
				return nil, err
			}
		}
		accs[i] = acc
	}
	for i := 0; i+1 < len(accs); i++ {
		if _, err := accs[i].AddASCC("Next", accs[i+1], opt, uml.AggregationComposite); err != nil {
			return nil, err
		}
	}
	abies := make([]*core.ABIE, spec.ABIEs)
	for i := len(accs) - 1; i >= 0; i-- {
		r := core.Restriction{Qualifier: spec.Qualifier}
		for _, f := range fields(i) {
			r.BBIEs = append(r.BBIEs, core.BBIEPick{BCC: f})
		}
		if i+1 < len(accs) {
			r.ASBIEs = append(r.ASBIEs, core.ASBIEPick{Role: "Next", Target: abies[i+1]})
		}
		if abies[i], err = core.DeriveABIE(bieLib, accs[i], r); err != nil {
			return nil, err
		}
	}
	root := core.Restriction{Name: "Document", BBIEs: []core.BBIEPick{{BCC: "Field000"}}}
	if len(abies) > 1 {
		root.ASBIEs = []core.ASBIEPick{{Role: "Next", Target: abies[1]}}
	}
	if _, err := core.DeriveABIE(docLib, accs[0], root); err != nil {
		return nil, err
	}
	return m, nil
}

// syntheticModel exports spec as an op-class model.
func syntheticModel(class string, spec synthSpec) (*model, error) {
	m, err := buildSynthetic(spec)
	if err != nil {
		return nil, err
	}
	data, err := exportXMI(m)
	if err != nil {
		return nil, err
	}
	return &model{Class: class, XMI: data, Library: "SynDoc", Root: "Document"}, nil
}

// compileModels is one round of the compile workload, in its fixed
// order: the two paper fixtures, then seeded chained models of 10, 100
// and 300 ABIEs with 10 BBIEs each. The seed varies names and
// qualifiers, never sizes.
func compileModels(seed int64) ([]*model, error) {
	hp, po, err := paperModels()
	if err != nil {
		return nil, err
	}
	out := []*model{hp, po}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{10, 100, 300} {
		m, err := syntheticModel(fmt.Sprintf("syn%d", n), newSynthSpec(rng, n, 10))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Subject models of the registry and cluster workloads: paper-scale
// chained models (12 ABIEs of 8 BBIEs), one name set per subject.
// Version v adds v-1 optional BBIEs to the first ABIE, so every publish
// is a compatible revision of the one before.
const (
	subjectABIEs = 12
	subjectBBIEs = 8
)

// subjectNames returns n seeded subject names of equal length.
func subjectNames(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%03d%s", i, letters(rng, 5))
	}
	return out
}

// subjectXMI is version v (1-based) of subject i's model.
func subjectXMI(seed int64, i, v int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
	spec := newSynthSpec(rng, subjectABIEs, subjectBBIEs)
	spec.Extras = v - 1
	m, err := buildSynthetic(spec)
	if err != nil {
		return nil, err
	}
	return exportXMI(m)
}

// variantXMI returns the HoardingPermit XMI under another model name of
// the same length.
func variantXMI(hp []byte, name string) ([]byte, error) {
	old := []byte(`<uml:Model xmi:id="model" name="` + hpModelName + `">`)
	if len(name) != len(hpModelName) {
		return nil, fmt.Errorf("variant name %q must have %d letters", name, len(hpModelName))
	}
	if !bytes.Contains(hp, old) {
		return nil, fmt.Errorf("HoardingPermit XMI has no model element named %s", hpModelName)
	}
	return bytes.Replace(hp, old, []byte(`<uml:Model xmi:id="model" name="`+name+`">`), 1), nil
}

// variantName is the n-th distinct variant name of a seed: a seeded
// three-letter prefix and n in base 26, seven letters in all.
func variantName(seed int64, n int) string {
	prefix := letters(rand.New(rand.NewSource(seed^0x7a11)), 3)
	b := []byte(prefix + "aaaa")
	for i := len(b) - 1; i >= 3 && n > 0; i-- {
		b[i] = byte('a' + n%26)
		n /= 26
	}
	return string(b)
}

// goldens loads the golden files of every target of m.
func goldens(m *model) (map[string]map[string][]byte, error) {
	out := map[string]map[string][]byte{}
	for target, dir := range m.GoldenDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("reading goldens of %s/%s: %w", m.Class, target, err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return nil, err
			}
			files[e.Name()] = data
		}
		out[target] = files
	}
	return out, nil
}
