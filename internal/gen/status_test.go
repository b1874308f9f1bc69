package gen

import (
	"slices"
	"testing"
)

// TestStatusSequence pins the exact Options.Status lines of two runs.
// The job subsystem streams them as SSE progress events, so the order
// is part of the contract: the plan walk's lines in model order, one
// "emitted" line per library in plan order, then the run's summary.
func TestStatusSequence(t *testing.T) {
	f := buildFixture(t)
	t.Run("document", func(t *testing.T) {
		var lines []string
		_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{
			Status: func(msg string) { lines = append(lines, msg) },
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"generating document schema for EB005-HoardingPermit (root HoardingPermit)",
			"processing CDTLibrary coredatatypes",
			"processing QDTLibrary BuildingAndPlanningDataTypes",
			"processing ENUMLibrary EnumerationTypes",
			"processing BIELibrary CommonAggregates",
			"processing BIELibrary LocalLawAggregates",
			"emitted 1 definition(s) for DOCLibrary EB005-HoardingPermit",
			"emitted 13 definition(s) for CDTLibrary coredatatypes",
			"emitted 4 definition(s) for QDTLibrary BuildingAndPlanningDataTypes",
			"emitted 2 definition(s) for ENUMLibrary EnumerationTypes",
			"emitted 5 definition(s) for BIELibrary CommonAggregates",
			"emitted 1 definition(s) for BIELibrary LocalLawAggregates",
			"generated 6 schema(s)",
		}
		if !slices.Equal(lines, want) {
			t.Errorf("status lines:\n%q\nwant:\n%q", lines, want)
		}
	})
	t.Run("library", func(t *testing.T) {
		var lines []string
		plan, err := NewPlan(f.Common, "", Options{
			Status: func(msg string) { lines = append(lines, msg) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.ExecuteBackend(XSDBackend{}); err != nil {
			t.Fatal(err)
		}
		want := []string{
			"generating schema for BIELibrary CommonAggregates",
			"processing BIELibrary CommonAggregates",
			"processing CDTLibrary coredatatypes",
			"processing QDTLibrary BuildingAndPlanningDataTypes",
			"processing ENUMLibrary EnumerationTypes",
			"emitted 5 definition(s) for BIELibrary CommonAggregates",
			"emitted 13 definition(s) for CDTLibrary coredatatypes",
			"emitted 4 definition(s) for QDTLibrary BuildingAndPlanningDataTypes",
			"emitted 2 definition(s) for ENUMLibrary EnumerationTypes",
			"generated 4 xsd file(s)",
		}
		if !slices.Equal(lines, want) {
			t.Errorf("status lines:\n%q\nwant:\n%q", lines, want)
		}
	})
}
