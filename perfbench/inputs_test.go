package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCompileInputsAreSeeded(t *testing.T) {
	a, err := compileModels(7)
	if err != nil {
		t.Fatal(err)
	}
	again, err := compileModels(7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := compileModels(8)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range a {
		if !bytes.Equal(m.XMI, again[i].XMI) {
			t.Errorf("%s: the same seed gave different inputs", m.Class)
		}
		if len(m.XMI) != len(other[i].XMI) {
			t.Errorf("%s: seeds 7 and 8 gave sizes %d and %d", m.Class, len(m.XMI), len(other[i].XMI))
		}
		fixed := m.Class == hpClass || m.Class == poClass
		if same := bytes.Equal(m.XMI, other[i].XMI); same != fixed {
			t.Errorf("%s: inputs of seeds 7 and 8 equal = %v, want %v", m.Class, same, fixed)
		}
	}
}

func TestSubjectInputsAreSeeded(t *testing.T) {
	a, err := subjectXMI(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := subjectXMI(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := subjectXMI(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave different subject models")
	}
	if bytes.Equal(a, other) || len(a) != len(other) {
		t.Errorf("seeds 3 and 4: equal = %v, sizes %d and %d; want different bytes of one size", bytes.Equal(a, other), len(a), len(other))
	}
	if n3, n4 := subjectNames(3, 10), subjectNames(4, 10); n3[0] == n4[0] || len(n3[0]) != len(n4[0]) {
		t.Errorf("subject names %q and %q: want different names of one length", n3[0], n4[0])
	}
}

func TestVariantsKeepSizeAndDiffer(t *testing.T) {
	hp, _, err := paperModels()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for n := 0; n < 2000; n++ {
		name := variantName(9, n)
		if seen[name] || len(name) != len(hpModelName) {
			t.Fatalf("variant %d: name %q repeats or has the wrong length", n, name)
		}
		seen[name] = true
	}
	if variantName(9, 1) == variantName(10, 1) {
		t.Error("seeds 9 and 10 gave the same variant name")
	}
	v, err := variantXMI(hp.XMI, variantName(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != len(hp.XMI) || bytes.Equal(v, hp.XMI) {
		t.Error("a variant must differ from the fixture at the same size")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the metric lists of
// BENCHMARK.json and the harness in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, e2eMetrics)
	compare("per_layer", doc.PerLayer, perLayerMetrics())
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, w.Name, workloads[i])
		}
	}
}
