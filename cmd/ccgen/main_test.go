package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
)

// writeSampleModel exports the HoardingPermit fixture as XMI into dir.
func writeSampleModel(t *testing.T, dir string) string {
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

func TestGenerateDocumentCLI(t *testing.T) {
	dir := t.TempDir()
	model := writeSampleModel(t, dir)
	out := filepath.Join(dir, "schemas")
	err := run([]string{
		"-model", model,
		"-library", "EB005-HoardingPermit",
		"-root", "HoardingPermit",
		"-out", out,
		"-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Errorf("generated %d files, want 6", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(out, "EB005-HoardingPermit_0.4.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "HoardingPermitType") {
		t.Error("doc schema content wrong")
	}
}

// goldenDir holds the golden files the root package's tests pin.
var goldenDir = filepath.Join("..", "..", "testdata", "golden")

// documentGolden maps a file of the HoardingPermit document run to its
// golden. The xsd goldens are annotated; the rng and rdfs goldens
// predate per-target directories and carry their own names.
func documentGolden(target, name string) string {
	switch target {
	case "xsd":
		return filepath.Join(goldenDir, name)
	case "rng":
		return filepath.Join(goldenDir, "EB005-HoardingPermit.rng")
	case "rdfs":
		return filepath.Join(goldenDir, "EasyBiz.rdfs.xml")
	case "go":
		name += ".golden"
	}
	return filepath.Join(goldenDir, "hoardingpermit", target, name)
}

// libraryGolden maps a file of a library run to its golden.
func libraryGolden(library string) func(target, name string) string {
	return func(target, name string) string {
		return filepath.Join(goldenDir, "libraries", library, target, name)
	}
}

// TestEveryTargetMatchesGoldens runs every -target on the HoardingPermit
// document and on a BIE and a CDT library run, and compares the written
// files with the goldens byte for byte; a library run must write exactly
// the files of its golden directory. The go target binds documents
// only, so its library runs must fail without writing anything.
func TestEveryTargetMatchesGoldens(t *testing.T) {
	dir := t.TempDir()
	model := writeSampleModel(t, dir)
	runs := []struct {
		library, root string
		golden        func(target, name string) string
	}{
		{"EB005-HoardingPermit", "HoardingPermit", documentGolden},
		{"CommonAggregates", "", libraryGolden("CommonAggregates")},
		{"coredatatypes", "", libraryGolden("coredatatypes")},
	}
	for _, r := range runs {
		for _, target := range ccts.Targets() {
			t.Run(r.library+"/"+target, func(t *testing.T) {
				out := filepath.Join(dir, r.library, target)
				args := []string{"-model", model, "-library", r.library, "-target", target, "-out", out, "-quiet"}
				if r.root != "" {
					args = append(args, "-root", r.root)
				}
				if target == "xsd" && r.root != "" {
					args = append(args, "-annotate")
				}
				err := run(args)
				if target == "go" && r.root == "" {
					if err == nil {
						t.Error("go target accepted a library run")
					}
					if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
						t.Errorf("failed run created output dir: %v", statErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				entries, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				var written []string
				for _, e := range entries {
					written = append(written, e.Name())
					got, err := os.ReadFile(filepath.Join(out, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					path := r.golden(target, e.Name())
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Errorf("%s differs from %s", e.Name(), path)
					}
				}
				if r.root != "" {
					return
				}
				goldens, err := os.ReadDir(r.golden(target, ""))
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, e := range goldens {
					want = append(want, e.Name())
				}
				sort.Strings(written)
				if strings.Join(written, " ") != strings.Join(want, " ") {
					t.Errorf("wrote %v, golden directory holds %v", written, want)
				}
			})
		}
	}
}

func TestGenerateBIELibraryCLI(t *testing.T) {
	dir := t.TempDir()
	model := writeSampleModel(t, dir)
	err := run([]string{
		"-model", model,
		"-library", "CommonAggregates",
		"-out", filepath.Join(dir, "schemas"),
		"-quiet", "-annotate", "-style", "composite",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHelpIsNotAnError: -h must surface flag.ErrHelp so main exits 0.
func TestHelpIsNotAnError(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"-help"}} {
		err := run(args)
		if !errors.Is(err, flag.ErrHelp) {
			t.Errorf("run(%v) = %v, want flag.ErrHelp", args, err)
		}
	}
}

// TestTimeoutCancelsGeneration: an absurdly small -timeout must abort
// the run with a wrapped deadline error instead of writing schemas.
func TestTimeoutCancelsGeneration(t *testing.T) {
	dir := t.TempDir()
	model := writeSampleModel(t, dir)
	out := filepath.Join(dir, "schemas")
	err := run([]string{
		"-model", model,
		"-library", "EB005-HoardingPermit",
		"-root", "HoardingPermit",
		"-out", out,
		"-quiet",
		"-timeout", "1ns",
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Errorf("cancelled run created output dir: %v", statErr)
	}
}

// TestBadTimeoutFlag: a malformed -timeout is a usage error.
func TestBadTimeoutFlag(t *testing.T) {
	if err := run([]string{"-timeout", "banana"}); err == nil {
		t.Error("malformed -timeout should fail")
	}
}

func TestGenerateCLIErrors(t *testing.T) {
	dir := t.TempDir()
	model := writeSampleModel(t, dir)

	cases := [][]string{
		{},                // missing flags
		{"-model", model}, // missing library
		{"-model", "/nope", "-library", "X"},
		{"-model", model, "-library", "NoSuchLibrary", "-quiet"},
		{"-model", model, "-library", "EB005-HoardingPermit", "-quiet"},                 // DOC without root
		{"-model", model, "-library", "EB005-HoardingPermit", "-root", "Bad", "-quiet"}, // bad root
		{"-model", model, "-library", "CommonAggregates", "-style", "bogus", "-quiet"},  // bad style
		{"-model", model, "-library", "PrimitiveTypes", "-quiet"},                       // PRIM lib
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v) should fail", i, args)
		}
	}
}

func TestGenerateCLIValidatesModel(t *testing.T) {
	dir := t.TempDir()
	// Build a model with a validation error: library without version is
	// only a warning, so break a namespace instead (duplicate URN).
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	f.Common.BaseURN = f.Local.BaseURN // SEM-NS-2
	path := filepath.Join(dir, "broken.xmi")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ccts.ExportXMI(f.Model, file); err != nil {
		t.Fatal(err)
	}
	file.Close()

	err = run([]string{
		"-model", path, "-library", "CommonAggregates",
		"-out", filepath.Join(dir, "s"), "-quiet",
	})
	if err == nil || !strings.Contains(err.Error(), "validation errors") {
		t.Errorf("expected validation abort, got %v", err)
	}
	// -skip-validation lets it through (generation itself still works
	// because prefixes disambiguate automatically)... the duplicate URN
	// makes schema files collide though, so expect generation behaviour,
	// not a validation error.
	err = run([]string{
		"-model", path, "-library", "CommonAggregates",
		"-out", filepath.Join(dir, "s"), "-quiet", "-skip-validation",
	})
	if err != nil && strings.Contains(err.Error(), "validation errors") {
		t.Errorf("-skip-validation did not skip: %v", err)
	}
}

// TestGenerateCLIChecksImportedModel puts an enumeration into the
// CCLibrary. Extraction drops it without an error, so only the
// constraints on the imported model see it: ccgen must refuse the model
// (exit status 1) and name CCL-3 among the findings on stderr.
func TestGenerateCLIChecksImportedModel(t *testing.T) {
	dir := t.TempDir()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	um := ccts.ToUML(f.Model)
	um.FindPackage(f.CCLib.Name).AddEnumeration("Stray", profile.StENUM)
	path := filepath.Join(dir, "stray.xmi")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ccts.ExportUMLXMI(um, file); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = run([]string{"-model", path, "-library", "CommonAggregates", "-out", filepath.Join(dir, "s"), "-quiet"})
	os.Stderr = saved
	if err == nil || !strings.Contains(err.Error(), "validation errors") {
		t.Errorf("err = %v, want the validation abort", err)
	}
	logged, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logged), "[CCL-3]") {
		t.Errorf("stderr does not name CCL-3:\n%s", logged)
	}
}
