package xsdval_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/instgen"
	"github.com/go-ccts/ccts/internal/xsd"
	"github.com/go-ccts/ccts/internal/xsdval"
)

// docSet compiles the schema set generated for a DOC library's root.
func docSet(t testing.TB, lib *core.Library, root string) *xsdval.SchemaSet {
	t.Helper()
	res, err := gen.GenerateDocument(lib, root, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var schemas []*xsd.Schema
	for _, file := range res.Order {
		schemas = append(schemas, res.Schemas[file])
	}
	ss, err := xsdval.NewSchemaSet(schemas...)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// samples returns the Minimal and Full instgen samples of a root.
func samples(t testing.TB, ss *xsdval.SchemaSet, lib *core.Library, root string) []string {
	t.Helper()
	var docs []string
	for _, mode := range []instgen.Mode{instgen.Minimal, instgen.Full} {
		doc, err := instgen.Generate(ss, lib.BaseURN, root, instgen.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// mutate applies one to three seeded edits to doc: it drops, repeats or
// swaps lines, or replaces, inserts or deletes bytes, so the result may
// break the schema, the XML, or both.
func mutate(r *rand.Rand, doc string) string {
	inserts := []string{"<x/>", "&amp;", "&#65;", "<!---->", "<![CDATA[x]]>", "<?pi?>", ` a="1"`, "\r\n", "</", ">", `"`, "é", "\x00"}
	for n := 1 + r.Intn(3); n > 0 && len(doc) > 0; n-- {
		lines := strings.SplitAfter(doc, "\n")
		i, j := r.Intn(len(lines)), r.Intn(len(lines))
		at := r.Intn(len(doc))
		switch r.Intn(6) {
		case 0:
			lines = append(lines[:i:i], lines[i+1:]...)
			doc = strings.Join(lines, "")
		case 1:
			lines = append(lines[:i+1:i+1], lines[i:]...)
			doc = strings.Join(lines, "")
		case 2:
			lines[i], lines[j] = lines[j], lines[i]
			doc = strings.Join(lines, "")
		case 3:
			doc = doc[:at] + string("<>&/\"' a1-:\r\n"[r.Intn(13)]) + doc[at+1:]
		case 4:
			doc = doc[:at] + inserts[r.Intn(len(inserts))] + doc[at:]
		case 5:
			doc = doc[:at] + doc[min(len(doc), at+1+r.Intn(16)):]
		}
	}
	return doc
}

// TestReadersAgreeOnSamples runs Validate's scanner and the oracle over
// the Minimal and Full samples of HoardingPermit and both PurchaseOrder
// documents and over 300 seeded mutations of each.
func TestReadersAgreeOnSamples(t *testing.T) {
	hp := fixture.MustBuildHoardingPermit()
	po, err := fixture.BuildPurchaseOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		lib  *core.Library
		root string
	}{{hp.DOCLib, "HoardingPermit"}, {po.EUDocLib, "EU_Order"}, {po.USDocLib, "US_Order"}} {
		ss := docSet(t, d.lib, d.root)
		for k, doc := range samples(t, ss, d.lib, d.root) {
			name := fmt.Sprintf("%s sample %d", d.root, k)
			if res, err := ss.ValidateString(doc); err != nil || !res.Valid() {
				t.Fatalf("%s does not validate: %v %v", name, err, res)
			}
			xsdval.CompareReaders(t, ss, name, []byte(doc))
			r := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 300; i++ {
				xsdval.CompareReaders(t, ss, fmt.Sprintf("%s mutation %d", name, i), []byte(mutate(r, doc)))
			}
		}
	}
}

// FuzzValidateInstance checks that arbitrary input never panics the
// validator and that Validate's scanner and the encoding/xml oracle
// reach the same result against the HoardingPermit schema set, except
// where the scanner rejects the input under a limit or for a DTD.
func FuzzValidateInstance(f *testing.F) {
	hp := fixture.MustBuildHoardingPermit()
	ss := docSet(f, hp.DOCLib, "HoardingPermit")
	for _, doc := range samples(f, ss, hp.DOCLib, "HoardingPermit") {
		f.Add(doc)
	}
	for _, seed := range xsdval.InstanceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		xsdval.CompareReaders(t, ss, "fuzz input", []byte(doc))
	})
}
