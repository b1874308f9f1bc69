package gen_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/jsonschema"
	"github.com/go-ccts/ccts/internal/protogen"
)

// TestEachOpThroughBackends runs every backend that walks the plan op
// by op through ExecuteBackend with faults injected into EachOp: a
// panic in one op becomes an OpError naming it, panics in two libraries
// are both reported, and a cancel from inside an op stops the run. The
// hook is a package global, so these tests must not be parallel.
func TestEachOpThroughBackends(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	execute := func(t *testing.T, b gen.Backend, opts gen.Options, hook func(lib *core.Library, op string)) error {
		t.Helper()
		*gen.EmitFault = hook
		t.Cleanup(func() { *gen.EmitFault = nil })
		plan, err := gen.NewPlan(f.DOCLib, "HoardingPermit", opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = plan.ExecuteBackend(b)
		return err
	}
	for _, b := range []gen.Backend{gen.XSDBackend{}, jsonschema.Backend{}, protogen.Backend{}} {
		t.Run(b.Target()+"/panic", func(t *testing.T) {
			err := execute(t, b, gen.Options{}, func(_ *core.Library, op string) {
				if op == `ABIE "HoardingPermit"` {
					panic("injected emit fault")
				}
			})
			var opErr *gen.OpError
			if !errors.As(err, &opErr) {
				t.Fatalf("error %v is not an *OpError", err)
			}
			if opErr.Library != f.DOCLib.Name || opErr.Op != `ABIE "HoardingPermit"` || opErr.Recovered != "injected emit fault" {
				t.Errorf("OpError names %s of %q, recovered %v", opErr.Op, opErr.Library, opErr.Recovered)
			}
		})
		t.Run(b.Target()+"/two libraries", func(t *testing.T) {
			err := execute(t, b, gen.Options{}, func(lib *core.Library, _ string) {
				if lib == f.Common || lib == f.Local {
					panic("injected fault in " + lib.Name)
				}
			})
			for _, lib := range []*core.Library{f.Common, f.Local} {
				if err == nil || !strings.Contains(err.Error(), "injected fault in "+lib.Name) {
					t.Errorf("joined error %v does not name library %s", err, lib.Name)
				}
			}
		})
		t.Run(b.Target()+"/cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := execute(t, b, gen.Options{Context: ctx}, func(*core.Library, string) { cancel() })
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "emit cancelled") {
				t.Errorf("err = %v, want emit cancelled wrapping context.Canceled", err)
			}
		})
	}
}
