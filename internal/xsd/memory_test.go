package xsd

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/limits"
)

// parseAlloc parses doc under the default limits through the io.Reader
// entry point and returns the error and the heap bytes the parse
// allocated.
func parseAlloc(doc []byte) (uint64, error) {
	return parseReaderAlloc(bytes.NewReader(doc))
}

func parseReaderAlloc(r io.Reader) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(r)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// schemaWith wraps body in an empty schema.
func schemaWith(body string) []byte {
	return []byte(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:m">` + body + `</xsd:schema>`)
}

// TestParseMemoryBounded: an accepted 8 MiB schema of 512 KiB newline
// runs costs less than three times its size, the input copy included.
// The encoding/xml reader allocated about 47 times its size here: it
// indexed every newline and buffered every run.
// The bound holds for a schema read from a file as well as from memory:
// the input buffer is sized from the file's Stat, where it grew by
// doubling to 4x the file before.
func TestParseMemoryBounded(t *testing.T) {
	doc := schemaWith(strings.Repeat(strings.Repeat("\n", 512<<10)+"<!---->", 16))
	path := filepath.Join(t.TempDir(), "runs.xsd")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []io.Reader{bytes.NewReader(doc), f} {
		n, err := parseReaderAlloc(r)
		if err != nil {
			t.Fatal(err)
		}
		if n >= 3*uint64(len(doc)) {
			t.Errorf("parsing %d bytes from a %T allocated %d bytes, want < 3x", len(doc), r, n)
		}
	}
}

// TestParseMemoryTokenCut: a single 8 MiB character-data run fails with
// MaxTokenLen, within the same bound, instead of being buffered whole
// before the check.
func TestParseMemoryTokenCut(t *testing.T) {
	doc := schemaWith(strings.Repeat("\n", 8<<20))
	n, err := parseAlloc(doc)
	var v *limits.Violation
	if !errors.As(err, &v) || v.Limit != "MaxTokenLen" {
		t.Fatalf("err = %v, want a MaxTokenLen violation", err)
	}
	if n >= 3*uint64(len(doc)) {
		t.Errorf("rejecting %d bytes allocated %d bytes, want < 3x", len(doc), n)
	}
}
