package xmi

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/limits"
)

// importAlloc imports doc under the default limits through the
// io.Reader entry point and returns the error and the heap bytes the
// import allocated.
func importAlloc(doc []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ImportWithOptions(bytes.NewReader(doc), ImportOptions{Limits: limits.Default()})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// modelDoc wraps body in an XMI document with an empty model.
func modelDoc(body string) []byte {
	return []byte(`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">` +
		`<uml:Model xmi:id="m" name="M">` + body + `</uml:Model></xmi:XMI>`)
}

// TestImportMemoryBounded: an accepted 8 MiB document of 512 KiB newline
// runs costs less than three times its size, the input copy included.
// The encoding/xml reader allocated about 47 times its size here: it
// indexed every newline and buffered every run.
func TestImportMemoryBounded(t *testing.T) {
	doc := modelDoc(strings.Repeat(strings.Repeat("\n", 512<<10)+"<!---->", 16))
	n, err := importAlloc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 3*uint64(len(doc)) {
		t.Errorf("importing %d bytes allocated %d bytes, want < 3x", len(doc), n)
	}
}

// TestImportMemoryTokenCut: a single 8 MiB character-data run fails
// with MaxTokenLen, within the same bound, instead of being buffered
// whole before the check.
func TestImportMemoryTokenCut(t *testing.T) {
	doc := modelDoc(strings.Repeat("\n", 8<<20))
	n, err := importAlloc(doc)
	var v *limits.Violation
	if !errors.As(err, &v) || v.Limit != "MaxTokenLen" {
		t.Fatalf("err = %v, want a MaxTokenLen violation", err)
	}
	if n >= 3*uint64(len(doc)) {
		t.Errorf("rejecting %d bytes allocated %d bytes, want < 3x", len(doc), n)
	}
}

// TestImportBytesCopiesStrings: the imported model shares no memory
// with the input, so a caller may reuse the buffer and a memoised model
// never pins a request body.
func TestImportBytesCopiesStrings(t *testing.T) {
	doc := []byte(exportFixture(t))
	m, _, err := ImportBytes(doc, ImportOptions{Limits: limits.Default()})
	if err != nil {
		t.Fatal(err)
	}
	want := ExportString(m)
	for i := range doc {
		doc[i] = 'X'
	}
	if ExportString(m) != want {
		t.Error("overwriting the input changed the imported model")
	}
}

// TestImportBytesReadsOnlyBudget: ImportBytes reads no more than
// MaxInputBytes of a larger buffer, and sizes nothing from the rest.
func TestImportBytesReadsOnlyBudget(t *testing.T) {
	doc := modelDoc(strings.Repeat(" ", 16<<20))
	lim := limits.Default()
	lim.MaxInputBytes = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ImportBytes(doc, ImportOptions{Limits: lim})
	runtime.ReadMemStats(&after)
	var v *limits.Violation
	if !errors.As(err, &v) || v.Limit != "MaxInputBytes" {
		t.Fatalf("err = %v, want a MaxInputBytes violation", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("import of a 4 KiB budget allocated %d bytes", n)
	}
}
