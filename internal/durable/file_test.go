package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/faultio"
)

// listFiles returns every regular file under dir, relative to it.
func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out = append(out, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := WriteFile(path, []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	// A write killed mid-stream keeps the old content and leaves no
	// temp file behind.
	err := WriteFile(path, []byte("new content"), func(w io.Writer) io.Writer {
		return &faultio.Writer{W: w, Limit: 3}
	})
	if !errors.Is(err, faultio.ErrInjected) || !strings.Contains(err.Error(), path) {
		t.Fatalf("faulted write: %v, want the injected fault naming %s", err, path)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("content after failed write = %q, want old", got)
	}
	if err := WriteFile(path, []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content = %q, want new", got)
	}
	if files := listFiles(t, dir); len(files) != 1 {
		t.Fatalf("files %v, want only doc.json", files)
	}
}

// TestWriteFileKeepsPermissions: a new file is 0644, and a replaced
// file keeps the permissions it had.
func TestWriteFileKeepsPermissions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	perm := func() os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if err := WriteFile(path, []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	if got := perm(); got != 0o644 {
		t.Errorf("new file has mode %v, want 0644", got)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	if got := perm(); got != 0o640 {
		t.Errorf("replaced file has mode %v, want 0640", got)
	}
}

func TestWriteFileMissingDirectory(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "absent", "f"), []byte("x"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestSweepTemp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"keep.json", "manifest.json.tmp1", "ab/keep", "ab/cd.tmp42"} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := SweepTemp(dir); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(listFiles(t, dir), " "); got != filepath.Join("ab", "keep")+" keep.json" {
		t.Fatalf("after sweep: %s", got)
	}
}

func TestBlobsPutWalk(t *testing.T) {
	b := Blobs(filepath.Join(t.TempDir(), "blobs"))
	sum := func(data string) string {
		s := sha256.Sum256([]byte(data))
		return hex.EncodeToString(s[:])
	}
	if err := b.Walk(func(string, int64) error { t.Fatal("blob in a missing store"); return nil }); err != nil {
		t.Fatalf("Walk of a missing store: %v", err)
	}
	for _, data := range []string{"alpha", "beta", "alpha"} {
		if _, err := b.Put(sum(data), []byte(data), nil); err != nil {
			t.Fatal(err)
		}
	}
	if created, err := b.Put(sum("beta"), []byte("beta"), nil); err != nil || created {
		t.Fatalf("re-put of a resident blob: created=%v, %v", created, err)
	}
	if got, err := os.ReadFile(b.Path(sum("alpha"))); err != nil || string(got) != "alpha" {
		t.Fatalf("read alpha: %q, %v", got, err)
	}
	if filepath.Base(filepath.Dir(b.Path(sum("alpha")))) != sum("alpha")[:2] {
		t.Fatalf("path %s not fanned out by digest prefix", b.Path(sum("alpha")))
	}

	// A failed write stores nothing.
	if _, err := b.Put(sum("gamma"), []byte("gamma"), func(w io.Writer) io.Writer {
		return &faultio.Writer{W: w, Limit: 2}
	}); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("faulted put: %v", err)
	}

	seen := map[string]int64{}
	if err := b.Walk(func(sha string, size int64) error { seen[sha] = size; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[sum("alpha")] != 5 || seen[sum("beta")] != 4 {
		t.Fatalf("walk saw %v", seen)
	}
}
