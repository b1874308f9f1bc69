package gen

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/core"
)

// withEmitFault installs a fault hook for the duration of one test.
// The hook is a package global, so tests using it must not be parallel.
func withEmitFault(t *testing.T, hook func(lib *core.Library, op string)) {
	t.Helper()
	testEmitFault = hook
	t.Cleanup(func() { testEmitFault = nil })
}

// waitGoroutines waits for the goroutine count to drop back to the
// baseline, tolerating runtime helpers that exit asynchronously.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEmitPanicBecomesOpError(t *testing.T) {
	f := buildFixture(t)
	withEmitFault(t, func(lib *core.Library, op string) {
		if op == `ABIE "HoardingPermit"` {
			panic("injected emit fault")
		}
	})
	for _, parallelism := range []int{1, 4} {
		_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Parallelism: parallelism})
		if err == nil {
			t.Fatalf("parallelism %d: want error, got nil", parallelism)
		}
		var opErr *OpError
		if !errors.As(err, &opErr) {
			t.Fatalf("parallelism %d: error %v is not an *OpError", parallelism, err)
		}
		if opErr.Library != f.DOCLib.Name {
			t.Errorf("parallelism %d: OpError.Library = %q, want %q", parallelism, opErr.Library, f.DOCLib.Name)
		}
		if opErr.Op != `ABIE "HoardingPermit"` {
			t.Errorf("parallelism %d: OpError.Op = %q", parallelism, opErr.Op)
		}
		if opErr.Recovered != "injected emit fault" {
			t.Errorf("parallelism %d: OpError.Recovered = %v", parallelism, opErr.Recovered)
		}
		if len(opErr.Stack) == 0 {
			t.Errorf("parallelism %d: OpError.Stack is empty", parallelism)
		}
		if !strings.Contains(err.Error(), f.DOCLib.Name) {
			t.Errorf("parallelism %d: error %q does not name the library", parallelism, err)
		}
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
	for _, parallelism := range []int{1, 4} {
		_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Parallelism: parallelism})
		if err == nil {
			t.Fatalf("parallelism %d: want error, got nil", parallelism)
		}
		for name := range faulty {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("parallelism %d: joined error %q does not mention library %s", parallelism, err, name)
			}
		}
	}
}

// TestEmitCancelSequential cancels the context from inside the first
// emit operation; the sequential path must stop claiming operations and
// surface the wrapped context error.
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

// TestEmitCancelParallel blocks every worker inside an emit operation,
// cancels mid-emit, and asserts the pool drains: the run returns the
// wrapped context error, no worker deadlocks on the chunk counter and no
// goroutine outlives the run.
func TestEmitCancelParallel(t *testing.T) {
	f := buildFixture(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 1)
	withEmitFault(t, func(lib *core.Library, op string) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
	})
	done := make(chan error, 1)
	go func() {
		_, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Parallelism: 4, Context: ctx})
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no emit operation started")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "emit cancelled") {
			t.Errorf("err = %q, want emit-cancellation message", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("emit did not drain after cancellation")
	}
	waitGoroutines(t, baseline)
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
	res, err := GenerateDocument(f.DOCLib, "HoardingPermit", Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Primary() == nil {
		t.Fatal("no primary schema")
	}
}
