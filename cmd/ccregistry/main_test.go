package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/faultio"
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

func TestRegistryWorkflow(t *testing.T) {
	dir := t.TempDir()
	model := sampleXMI(t, dir)
	store := filepath.Join(dir, "reg.json")

	var buf bytes.Buffer
	if err := run([]string{"-store", store, "register", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "registered 44 new entries") {
		t.Errorf("register output = %q", buf.String())
	}
	if _, err := os.Stat(store); err != nil {
		t.Fatal("store not written")
	}

	// Search against the persisted store.
	buf.Reset()
	if err := run([]string{"-store", store, "search", "permit"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hoarding Permit. Details") {
		t.Errorf("search output = %q", buf.String())
	}

	// CSV export + import into a second store.
	csvPath := filepath.Join(dir, "harm.csv")
	if err := run([]string{"-store", store, "export-csv", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	store2 := filepath.Join(dir, "reg2.json")
	buf.Reset()
	if err := run([]string{"-store", store2, "import-csv", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "44 entries after import") {
		t.Errorf("import output = %q", buf.String())
	}
	// Re-registering is idempotent.
	buf.Reset()
	if err := run([]string{"-store", store, "register", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "registered 0 new entries (44 total)") {
		t.Errorf("re-register output = %q", buf.String())
	}
}

func TestRegistryCLIErrors(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cases := [][]string{
		{},
		{"-store", filepath.Join(dir, "r.json"), "bogus"},
		{"-store", filepath.Join(dir, "r.json"), "register"},
		{"-store", filepath.Join(dir, "r.json"), "register", "/nope.xmi"},
		{"-store", filepath.Join(dir, "r.json"), "search"},
		{"-store", filepath.Join(dir, "r.json"), "export-csv"},
		{"-store", filepath.Join(dir, "r.json"), "import-csv", "/nope.csv"},
	}
	for i, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v) should fail", i, args)
		}
	}
	// Corrupt store file.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-store", bad, "search", "x"}, &buf); err == nil {
		t.Error("corrupt store should fail")
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "--help"} {
		t.Run(arg, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{arg}, &buf); !errors.Is(err, flag.ErrHelp) {
				t.Errorf("run(%q) = %v, want flag.ErrHelp (treated as success)", arg, err)
			}
		})
	}
}

// TestSaveFailureKeepsStore injects a write fault into an import-csv
// save: the error surfaces, the previous store is byte-identical and no
// temp file remains.
func TestSaveFailureKeepsStore(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "reg.json")
	csvPath := filepath.Join(dir, "harm.csv")
	var buf bytes.Buffer
	if err := run([]string{"-store", store, "register", sampleXMI(t, dir)}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-store", store, "export-csv", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}

	wrapStoreWriter = func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: 10} }
	defer func() { wrapStoreWriter = nil }()
	err = run([]string{"-store", store, "import-csv", csvPath}, &buf)
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("import-csv with a failing save = %v, want the injected fault", err)
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("failed save changed the store: %d bytes before, %d after", len(before), len(after))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
		t.Errorf("failed save left %v", tmps)
	}
}

// TestSaveKeepsStoreMode: a save replaces the store with a file of the
// same permissions, so a reader running as another user (ccserved's
// -registry) keeps its access.
func TestSaveKeepsStoreMode(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "reg.json")
	var buf bytes.Buffer
	if err := run([]string{"-store", store, "register", sampleXMI(t, dir)}, &buf); err != nil {
		t.Fatal(err)
	}
	mode := func() os.FileMode {
		t.Helper()
		fi, err := os.Stat(store)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if got := mode(); got != 0o644 {
		t.Errorf("new store has mode %v, want 0644", got)
	}
	if err := os.Chmod(store, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-store", store, "register", sampleXMI(t, dir)}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := mode(); got != 0o640 {
		t.Errorf("saved store has mode %v, want the previous 0640", got)
	}
}
