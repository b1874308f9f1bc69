package core_test

import (
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
)

func TestSchemaFileName(t *testing.T) {
	f := fixture.MustBuildHoardingPermit()
	if got := core.SchemaFileName(f.DOCLib); got != "EB005-HoardingPermit_0.4.xsd" {
		t.Errorf("file name = %q", got)
	}
	noVersion := &core.Library{Name: "Plain"}
	if got := core.SchemaFileName(noVersion); got != "Plain.xsd" {
		t.Errorf("file name = %q", got)
	}
	weird := &core.Library{Name: "a b/c", Version: "1 0"}
	if got := core.SchemaFileName(weird); got != "a_b_c_1_0.xsd" {
		t.Errorf("file name = %q", got)
	}
}
