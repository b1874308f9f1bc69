package ccts_test

// Whole-pipeline property tests: for synthetic models of arbitrary
// (small) shape, the full chain — validate, render to UML, check OCL
// constraints, export/import XMI, generate schemas, compile, produce a
// sample message, validate the message — must succeed at every step.

import (
	"bytes"
	"testing"
	"testing/quick"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

func TestPipelineProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(nRaw, bRaw uint8, chain bool) bool {
		n := int(nRaw%10) + 1
		bb := int(bRaw%6) + 1
		model, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{
			ABIEs: n, BBIEsPerABIE: bb, Chain: chain,
		})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}

		// 1. The synthetic model validates cleanly.
		if report := ccts.ValidateModel(model); report.HasErrors() {
			t.Logf("validate: %v", report.Errors())
			return false
		}

		// 2. XMI round trip preserves structure.
		var buf bytes.Buffer
		if err := ccts.ExportXMI(model, &buf); err != nil {
			t.Logf("export: %v", err)
			return false
		}
		back, err := ccts.ImportXMI(&buf)
		if err != nil {
			t.Logf("import: %v", err)
			return false
		}
		if got, want := ccts.CollectStats(back), ccts.CollectStats(model); got != want {
			t.Logf("stats differ: %+v vs %+v", got, want)
			return false
		}

		// 3. Schema generation from the re-imported model.
		docLib := back.FindLibrary("SynDoc")
		res, err := ccts.GenerateDocument(docLib, root.Name, ccts.GenerateOptions{})
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}

		// 4. Sample messages in both modes validate.
		set, err := ccts.CompileSchemas(res)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		for _, mode := range []ccts.SampleMode{ccts.SampleMinimal, ccts.SampleFull} {
			msg, err := ccts.GenerateSample(set, docLib.BaseURN, res.RootElement, mode)
			if err != nil {
				t.Logf("sample: %v", err)
				return false
			}
			vr, err := set.ValidateString(msg)
			if err != nil || !vr.Valid() {
				t.Logf("message validation: %v %v", err, vr)
				return false
			}
		}

		// 5. The registry indexes every aggregate.
		reg := ccts.NewRegistry()
		added := reg.RegisterModel(back)
		stats := ccts.CollectStats(back)
		wantEntries := stats.ACCs + stats.ABIEs + stats.CDTs + stats.QDTs + stats.ENUMs + stats.PRIMs
		if added != wantEntries {
			t.Logf("registry entries = %d, want %d", added, wantEntries)
			return false
		}

		// 6. RELAX NG and RDF generation succeed.
		for _, target := range []string{"rng", "rdfs"} {
			if _, err := ccts.GenerateTargetDocument(docLib, root.Name, target, ccts.GenerateOptions{}); err != nil {
				t.Logf("%s: %v", target, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHugeModel exercises the paper's motivating scale ("the huge amount
// of core components, business information entities etc. in a large
// model"): 5000 chained aggregates with 10 fields each — 50k members —
// validated, generated and XMI-round-tripped once.
func TestHugeModel(t *testing.T) {
	if testing.Short() {
		t.Skip("large model")
	}
	model, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{
		ABIEs: 5000, BBIEsPerABIE: 10, Chain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := ccts.CollectStats(model)
	if stats.ABIEs != 5001 || stats.BBIEs < 50000 {
		t.Fatalf("unexpected scale: %+v", stats)
	}
	docLib := model.FindLibrary("SynDoc")
	res, err := ccts.GenerateDocument(docLib, root.Name, ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bie := res.Schemas["SynBIE_1.0.xsd"]
	if got := len(bie.ComplexTypes); got != 5000 {
		t.Errorf("generated types = %d, want 5000", got)
	}
	// Semantic validation stays clean at scale (skip the OCL pass, which
	// is quadratic in nested-iterator constraints and covered at smaller
	// sizes).
	var buf bytes.Buffer
	if err := ccts.ExportXMI(model, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ccts.ImportXMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := ccts.CollectStats(back); got != stats {
		t.Errorf("XMI round trip changed stats: %+v vs %+v", got, stats)
	}
}

// TestDerivationRestrictionProperty: derived BIEs never contain members
// absent from their underlying components, for arbitrary pick subsets.
func TestDerivationRestrictionProperty(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	application := f.Model.FindACC("Application")
	bieLib := f.Common

	prop := func(mask uint16, nameSeed uint8) bool {
		var picks []ccts.BBIEPick
		for i, bcc := range application.BCCs {
			if mask&(1<<uint(i)) != 0 {
				picks = append(picks, ccts.BBIEPick{BCC: bcc.Name})
			}
		}
		name := "P" + string(rune('A'+nameSeed%26)) + string(rune('A'+(nameSeed/26)%26)) + "_Application"
		abie, err := ccts.DeriveABIE(bieLib, application, ccts.Restriction{
			Name:  name,
			BBIEs: picks,
		})
		if err != nil {
			// Name collision between runs with the same seed is the only
			// legitimate failure.
			return true
		}
		if len(abie.BBIEs) != len(picks) {
			return false
		}
		for _, bbie := range abie.BBIEs {
			if application.FindBCC(bbie.BasedOn.Name) == nil {
				return false
			}
			if !restricts(bbie.Card, bbie.BasedOn.Card) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// restricts mirrors the core rule: the upper bound must not widen.
func restricts(derived, base ccts.Cardinality) bool {
	if base.Upper == ccts.Unbounded {
		return true
	}
	return derived.Upper != ccts.Unbounded && derived.Upper <= base.Upper
}
