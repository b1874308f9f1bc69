package xsdval

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/limits"
)

// permitMessage wraps body in a HoardingPermit root element.
func permitMessage(body string) string {
	return `<doc:HoardingPermit xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit">` +
		body + `</doc:HoardingPermit>`
}

// validateAlloc validates doc and returns the error and the heap bytes
// the validation allocated.
func validateAlloc(ss *SchemaSet, doc string) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ss.ValidateString(doc)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestValidateRejectsDTD: a message carrying a DOCTYPE with an entity
// declaration fails with a positioned DTD rejection instead of being
// validated.
func TestValidateRejectsDTD(t *testing.T) {
	ss := permitSet(t)
	_, err := ss.ValidateString(`<!DOCTYPE x [<!ENTITY a "b">]>` + validPermit[strings.Index(validPermit, "<doc:"):])
	if !errors.Is(err, limits.ErrDTD) {
		t.Fatalf("err = %v, want a DTD rejection", err)
	}
	var pe *limits.PosError
	if !errors.As(err, &pe) || pe.Line != 1 || pe.Col != 31 {
		t.Errorf("DTD rejection = %v, want it positioned at 1:31", err)
	}
}

// TestValidateDepthBounded: a 1.4 MB message nested 200,000 elements
// deep fails at depth 101 with a positioned MaxDepth violation and
// allocates less than three times its size. The encoding/xml reader
// allocated about 62 times its size here and then reported findings.
func TestValidateDepthBounded(t *testing.T) {
	ss := permitSet(t)
	doc := permitMessage(strings.Repeat("<a>", 200000) + strings.Repeat("</a>", 200000))
	n, err := validateAlloc(ss, doc)
	var v *limits.Violation
	if !errors.As(err, &v) || v.Limit != "MaxDepth" || v.Line != 1 || v.Col < 1 {
		t.Fatalf("err = %v, want a positioned MaxDepth violation", err)
	}
	if n >= 3*uint64(len(doc)) {
		t.Errorf("rejecting %d bytes allocated %d bytes, want < 3x", len(doc), n)
	}
}

// TestValidateTokenLenBounded: an 8 MiB text value fails with
// MaxTokenLen within the same bound instead of being buffered and
// validated.
func TestValidateTokenLenBounded(t *testing.T) {
	ss := permitSet(t)
	doc := permitMessage(`<doc:ClosureReason>` + strings.Repeat("x", 8<<20) + `</doc:ClosureReason>`)
	n, err := validateAlloc(ss, doc)
	var v *limits.Violation
	if !errors.As(err, &v) || v.Limit != "MaxTokenLen" {
		t.Fatalf("err = %v, want a MaxTokenLen violation", err)
	}
	if n >= 3*uint64(len(doc)) {
		t.Errorf("rejecting %d bytes allocated %d bytes, want < 3x", len(doc), n)
	}
}

// TestValidateCountLimits: element and attribute counts past the
// default limits fail with their violations.
func TestValidateCountLimits(t *testing.T) {
	ss := permitSet(t)
	attrs := make([]string, 257)
	for i := range attrs {
		attrs[i] = " a" + strings.Repeat("b", i) + `="v"`
	}
	for limit, doc := range map[string]string{
		"MaxElements":   permitMessage(strings.Repeat("<e/>", 1<<20)),
		"MaxAttributes": permitMessage(`<doc:ClosureReason` + strings.Join(attrs, "") + `/>`),
	} {
		_, err := ss.ValidateString(doc)
		var v *limits.Violation
		if !errors.As(err, &v) || v.Limit != limit {
			t.Errorf("err = %v, want a %s violation", err, limit)
		}
	}
}
