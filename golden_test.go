package ccts_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenSchemas pins the generated HoardingPermit schema set
// byte-for-byte against testdata/golden. Run with -update after an
// intentional generator change.
func TestGoldenSchemas(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range res.Order {
		got := res.Schemas[file].String()
		path := filepath.Join(dir, file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (run `go test -run TestGolden -update .`): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from golden file; run with -update if intentional", file)
		}
	}
}

// TestGoldenRelaxNG pins the RELAX NG grammar.
func TestGoldenRelaxNG(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", "rng", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "EB005-HoardingPermit.rng"), string(out.Files[0].Data))
}

// TestGoldenRDFS pins the RDF Schema vocabulary.
func TestGoldenRDFS(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", "rdfs", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "EasyBiz.rdfs.xml"), string(out.Files[0].Data))
}

// TestGoldenXMI pins the XMI export.
func TestGoldenXMI(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "EasyBiz.xmi")
	var buf []byte
	{
		tmp := &writerBuffer{}
		if err := ccts.ExportXMI(f.Model, tmp); err != nil {
			t.Fatal(err)
		}
		buf = tmp.data
	}
	compareGolden(t, path, string(buf))
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run `go test -run TestGolden -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from golden file; run with -update if intentional", path)
	}
}
