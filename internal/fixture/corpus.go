package fixture

import (
	"fmt"

	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
)

// Named is a fixture model with a name for test output.
type Named struct {
	Name  string
	Model *core.Model
}

// Corpus returns a freshly built copy of every fixture model: the
// HoardingPermit, PurchaseOrder and Figure 1 examples, the synthetic 10-,
// 100- and 300-ABIE chains, and the malformed HoardingPermits.
func Corpus() []Named {
	po, err := BuildPurchaseOrder()
	if err != nil {
		panic(fmt.Sprintf("fixture: %v", err))
	}
	out := []Named{
		{"HoardingPermit", MustBuildHoardingPermit().Model},
		{"PurchaseOrder", po.Model},
		{"Figure1", MustBuildFigure1().Model},
	}
	for _, n := range []int{10, 100, 300} {
		m, _, err := BuildSynthetic(SyntheticSpec{ABIEs: n, BBIEsPerABIE: 10, Chain: true})
		if err != nil {
			panic(fmt.Sprintf("fixture: %v", err))
		}
		out = append(out, Named{fmt.Sprintf("syn%d", n), m})
	}
	return append(out, MalformedHoardingPermits()...)
}

// MalformedHoardingPermits returns one freshly built HoardingPermit per
// defect: untyped members, missing derivation links and links to
// elements outside the model. These are the models the validation
// engine exists to diagnose, so it must report them without panicking.
func MalformedHoardingPermits() []Named {
	defects := []struct {
		name   string
		mutate func(f *HoardingPermit)
	}{
		{"untyped BCC", func(f *HoardingPermit) {
			f.Model.FindACC("Application").FindBCC("CreatedDate").Type = nil
		}},
		{"untyped BBIE", func(f *HoardingPermit) { f.ApplicationBIE.BBIEs[0].Type = nil }},
		{"untyped CDT content", func(f *HoardingPermit) {
			f.Catalog.CDT(catalog.CDTText).Content.Type = nil
		}},
		{"untyped CDT SUP", func(f *HoardingPermit) {
			f.Catalog.CDT(catalog.CDTAmount).Sups[0].Type = nil
		}},
		{"untyped QDT content", func(f *HoardingPermit) {
			f.Model.FindQDT("Indicator_Code").Content.Type = nil
		}},
		{"untyped QDT SUP", func(f *HoardingPermit) {
			f.Model.FindQDT("CountryType").Sups[0].Type = nil
		}},
		{"QDT without CDT", func(f *HoardingPermit) { f.Model.FindQDT("Indicator_Code").BasedOn = nil }},
		{"ASBIE target without ACC", func(f *HoardingPermit) { f.ApplicationBIE.BasedOn = nil }},
		{"ABIE on foreign ACC", func(f *HoardingPermit) {
			f.RegistrationBIE.BasedOn = &core.ACC{Name: "Registration"}
		}},
		{"BCC without owner", func(f *HoardingPermit) {
			bbie := f.SignatureABIE.BBIEs[0]
			bbie.BasedOn = &core.BCC{Name: bbie.BasedOn.Name, Type: bbie.BasedOn.Type, Card: bbie.BasedOn.Card}
		}},
		{"ASCC without owner", func(f *HoardingPermit) {
			asbie := f.PersonIdent.ASBIEs[0]
			asbie.BasedOn = &core.ASCC{Role: asbie.BasedOn.Role, Target: asbie.BasedOn.Target, Card: asbie.BasedOn.Card}
		}},
		{"ASCC without target", func(f *HoardingPermit) { f.PersonIdent.ASBIEs[0].BasedOn.Target = nil }},
	}
	out := make([]Named, len(defects))
	for i, d := range defects {
		f := MustBuildHoardingPermit()
		d.mutate(f)
		out[i] = Named{Name: d.name, Model: f.Model}
	}
	return out
}
