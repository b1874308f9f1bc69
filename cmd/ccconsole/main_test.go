package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

func sampleXMI(t *testing.T, dir string) string {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model.xmi")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if err := ccts.ExportXMI(f.Model, file); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStats(t *testing.T) {
	model := sampleXMI(t, t.TempDir())
	var buf bytes.Buffer
	if err := run([]string{"stats", model}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"libraries:          8", "ACC/BCC/ASCC:       8/30/7"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWhereUsedAndUnused(t *testing.T) {
	model := sampleXMI(t, t.TempDir())
	var buf bytes.Buffer
	if err := run([]string{"where-used", model, "Code"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BCC type") {
		t.Errorf("where-used output = %q", buf.String())
	}
	buf.Reset()
	if err := run([]string{"unused", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "unused component(s)") {
		t.Errorf("unused output = %q", buf.String())
	}
}

func TestUpdateNamespaceAndBump(t *testing.T) {
	dir := t.TempDir()
	model := sampleXMI(t, dir)
	out := filepath.Join(dir, "updated.xmi")
	var buf bytes.Buffer
	if err := run([]string{"update-ns", model,
		"urn:au:gov:vic:easybiz", "urn:au:gov:vic:easybiz:v2", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "updated 6 namespace(s)") {
		t.Errorf("update output = %q", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "urn:au:gov:vic:easybiz:v2:data:draft:EB005-HoardingPermit") {
		t.Error("namespace rewrite not persisted")
	}

	// Dry run leaves the source untouched.
	before, _ := os.ReadFile(model)
	buf.Reset()
	if err := run([]string{"bump-version", model, "9.9"}, &buf); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(model)
	if !bytes.Equal(before, after) {
		t.Error("dry run modified the source file")
	}

	out2 := filepath.Join(dir, "bumped.xmi")
	if err := run([]string{"bump-version", model, "9.9", "-o", out2}, &buf); err != nil {
		t.Fatal(err)
	}
	bumped, _ := os.ReadFile(out2)
	if !strings.Contains(string(bumped), `value="9.9"`) {
		t.Error("version bump not persisted")
	}
}

func TestPlantUML(t *testing.T) {
	model := sampleXMI(t, t.TempDir())
	var buf bytes.Buffer
	if err := run([]string{"plantuml", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "@startuml") || !strings.Contains(buf.String(), "<<ACC>>") {
		t.Error("plantuml output wrong")
	}
	buf.Reset()
	if err := run([]string{"plantuml", model, "-hide-datatypes", "CommonAggregates"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<<CDT>>") {
		t.Error("datatypes not hidden")
	}
	if !strings.Contains(buf.String(), `package "CommonAggregates"`) {
		t.Error("filter lost the selected library")
	}
}

func TestSample(t *testing.T) {
	model := sampleXMI(t, t.TempDir())
	var buf bytes.Buffer
	if err := run([]string{"sample", model, "EB005-HoardingPermit", "HoardingPermit", "full"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IncludedRegistration") {
		t.Error("sample output missing required element")
	}
	buf.Reset()
	if err := run([]string{"sample", model, "EB005-HoardingPermit", "HoardingPermit", "minimal"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ClosureReason") {
		t.Error("minimal sample contains optional content")
	}
	// Error cases.
	for _, args := range [][]string{
		{"sample", model},
		{"sample", model, "NoLib", "X"},
		{"sample", model, "EB005-HoardingPermit", "HoardingPermit", "bogus"},
		{"sample", model, "EB005-HoardingPermit", "Nope"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%v should fail", args)
		}
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	oldPath := sampleXMI(t, dir)

	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	f.Common.Version = "0.2"
	newPath := filepath.Join(dir, "new.xmi")
	file, err := os.Create(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ccts.ExportXMI(f.Model, file); err != nil {
		t.Fatal(err)
	}
	file.Close()

	var buf bytes.Buffer
	if err := run([]string{"diff", oldPath, newPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `version "0.1" -> "0.2"`) {
		t.Errorf("diff output = %q", buf.String())
	}
	// Identical models: zero changes.
	buf.Reset()
	if err := run([]string{"diff", oldPath, oldPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 change(s)") {
		t.Errorf("self-diff output = %q", buf.String())
	}
	if err := run([]string{"diff", oldPath}, &buf); err == nil {
		t.Error("missing second model should fail")
	}
	if err := run([]string{"diff", oldPath, "/nope.xmi"}, &buf); err == nil {
		t.Error("missing file should fail")
	}
}

func TestConsoleErrors(t *testing.T) {
	model := sampleXMI(t, t.TempDir())
	var buf bytes.Buffer
	cases := [][]string{
		{},
		{"stats"},
		{"stats", "/nope.xmi"},
		{"bogus", model},
		{"where-used", model},
		{"update-ns", model, "only-one"},
		{"bump-version", model},
		// Retired in favour of ccgen -target rng|rdfs|go.
		{"relaxng", model, "EB005-HoardingPermit", "HoardingPermit"},
		{"rdfs", model},
		{"gobindings", model, "EB005-HoardingPermit", "HoardingPermit"},
	}
	for i, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v) should fail", i, args)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "--help", "help"} {
		t.Run(arg, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{arg}, &buf); !errors.Is(err, flag.ErrHelp) {
				t.Errorf("run(%q) = %v, want flag.ErrHelp (treated as success)", arg, err)
			}
			if !strings.Contains(buf.String(), "usage: ccconsole") {
				t.Errorf("usage text not printed:\n%s", buf.String())
			}
		})
	}
}
