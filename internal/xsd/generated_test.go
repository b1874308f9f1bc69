package xsd_test

import (
	"fmt"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/xsd"
)

// TestParsersAgreeOnGeneratedSets compares the scanner-based parser with
// the oracle on every schema generated for the synthetic chains of 10,
// 100 and 300 ABIEs and for both PurchaseOrder documents, each with and
// without annotations.
func TestParsersAgreeOnGeneratedSets(t *testing.T) {
	type run struct {
		name string
		lib  func() (*gen.Result, error)
	}
	var runs []run
	for _, n := range []int{10, 100, 300} {
		m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{ABIEs: n, BBIEsPerABIE: 10, Chain: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, annotate := range []bool{false, true} {
			runs = append(runs, run{fmt.Sprintf("syn%d annotate=%v", n, annotate), func() (*gen.Result, error) {
				return gen.GenerateDocument(m.FindLibrary("SynDoc"), root.Name, gen.Options{Annotate: annotate})
			}})
		}
	}
	po, err := fixture.BuildPurchaseOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, annotate := range []bool{false, true} {
		runs = append(runs, run{fmt.Sprintf("EU_Order annotate=%v", annotate), func() (*gen.Result, error) {
			return gen.GenerateDocument(po.EUDocLib, "EU_Order", gen.Options{Annotate: annotate})
		}}, run{fmt.Sprintf("US_Order annotate=%v", annotate), func() (*gen.Result, error) {
			return gen.GenerateDocument(po.USDocLib, "US_Order", gen.Options{Annotate: annotate})
		}})
	}
	for _, r := range runs {
		res, err := r.lib()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, file := range res.Order {
			xsd.CompareParsers(t, r.name+" "+file, []byte(res.Schemas[file].String()))
		}
	}
}
