package gen

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
)

// withEmitFault installs a fault hook for the duration of one test.
// The hook is a package global, so tests using it must not be parallel.
func withEmitFault(t *testing.T, hook func(lib *core.Library, op string)) {
	t.Helper()
	testEmitFault = hook
	t.Cleanup(func() { testEmitFault = nil })
}

func TestEmitPanicBecomesOpError(t *testing.T) {
	f := buildFixture(t)
	withEmitFault(t, func(lib *core.Library, op string) {
		if op == `ABIE "HoardingPermit"` {
			panic("injected emit fault")
		}
	})
	_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	var opErr *OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("error %v is not an *OpError", err)
	}
	if opErr.Library != f.DOCLib.Name {
		t.Errorf("OpError.Library = %q, want %q", opErr.Library, f.DOCLib.Name)
	}
	if opErr.Op != `ABIE "HoardingPermit"` {
		t.Errorf("OpError.Op = %q", opErr.Op)
	}
	if opErr.Recovered != "injected emit fault" {
		t.Errorf("OpError.Recovered = %v", opErr.Recovered)
	}
	if len(opErr.Stack) == 0 {
		t.Error("OpError.Stack is empty")
	}
	if !strings.Contains(err.Error(), f.DOCLib.Name) {
		t.Errorf("error %q does not name the library", err)
	}
}

// TestEmitPanicsAggregated proves one run reports every failing library,
// not just the first: panics injected into two different libraries both
// appear in the joined error.
func TestEmitPanicsAggregated(t *testing.T) {
	f := buildFixture(t)
	faulty := map[string]bool{f.Common.Name: true, f.Local.Name: true}
	withEmitFault(t, func(lib *core.Library, op string) {
		if faulty[lib.Name] {
			panic("injected fault in " + lib.Name)
		}
	})
	_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	for name := range faulty {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error %q does not mention library %s", err, name)
		}
	}
}

// TestEmitCancelSequential cancels the context from inside the first
// emit operation; the run must stop claiming operations and surface
// the wrapped context error.
func TestEmitCancelSequential(t *testing.T) {
	f := buildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withEmitFault(t, func(lib *core.Library, op string) { cancel() })
	_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "emit cancelled") {
		t.Errorf("err = %q, want emit-cancellation message", err)
	}
}

// TestPlanCancelled proves the plan walk observes the context too.
func TestPlanCancelled(t *testing.T) {
	f := buildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestContextNilIsBackground: a nil Options.Context must behave exactly
// like context.Background().
func TestContextNilIsBackground(t *testing.T) {
	f := buildFixture(t)
	res, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Primary() == nil {
		t.Fatal("no primary schema")
	}
}
