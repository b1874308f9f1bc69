package xmi_test

import (
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
	. "github.com/go-ccts/ccts/internal/xmi"
)

// FuzzImport checks that arbitrary input never panics the importer,
// that the scanner agrees with the encoding/xml oracle in strict and
// lenient mode under default and tight limits, and that successfully
// imported models re-export canonically.
func FuzzImport(f *testing.F) {
	hp := fixture.MustBuildHoardingPermit()
	f.Add(ExportString(profile.Render(hp.Model)))
	fig1 := fixture.MustBuildFigure1()
	f.Add(ExportString(profile.Render(fig1.Model)))
	for _, seed := range differentialSeeds() {
		f.Add(seed)
	}
	opts := differentialOptions()
	f.Fuzz(func(t *testing.T, doc string) {
		for _, o := range opts {
			compareReaders(t, "fuzz input", []byte(doc), o)
		}
		m, err := ImportString(doc)
		if err != nil {
			return
		}
		out := ExportString(m)
		m2, err := ImportString(out)
		if err != nil {
			t.Fatalf("canonical output does not re-import: %v", err)
		}
		if ExportString(m2) != out {
			t.Error("second round trip not stable")
		}
	})
}
