package main

import (
	"bytes"
	"fmt"
	"runtime"
	"syscall"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/validate"
	"github.com/go-ccts/ccts/internal/xmi"
)

// compiled is the output of one pipeline run: target -> files.
type compiled map[string][]ccts.GenOutFile

// compileModel runs the pipeline as ccgen users run it: import the XMI
// under the default limits, resolve, validate, then emit every registered
// target. With tr nil it calls the public entry points; with a tracer it
// calls each layer's own entry point inside a span, doing the same work.
func compileModel(m *model, tr *tracer) (compiled, error) {
	var (
		mod *core.Model
		ix  *core.ModelIndex
		err error
	)
	if tr == nil {
		if mod, err = ccts.ImportXMIWithLimits(bytes.NewReader(m.XMI), ccts.DefaultImportLimits()); err != nil {
			return nil, fmt.Errorf("%s: import: %w", m.Class, err)
		}
		ix = ccts.ResolveModel(mod)
		if rep := ccts.ValidateModelIndexed(mod, ix); rep.HasErrors() {
			return nil, fmt.Errorf("%s: validation errors: %v", m.Class, rep.Errors())
		}
	} else {
		var um *uml.Model
		var rules, constraints *validate.Report
		tr.do("xmi.import", func() {
			um, _, err = xmi.ImportWithOptions(bytes.NewReader(m.XMI), xmi.ImportOptions{Limits: limits.Default()})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: import: %w", m.Class, err)
		}
		tr.do("profile.extract", func() { mod, err = profile.Extract(um) })
		if err != nil {
			return nil, fmt.Errorf("%s: extract: %w", m.Class, err)
		}
		tr.do("core.resolve", func() { ix = core.NewModelIndex(mod) })
		tr.do("validate.rules", func() { rules = validate.ModelIndexed(mod, ix) })
		tr.do("profile.render", func() { um = profile.Render(mod) })
		tr.do("ocl.eval", func() { constraints = validate.UML(um) })
		if rules.HasErrors() || constraints.HasErrors() {
			return nil, fmt.Errorf("%s: validation errors: %v %v", m.Class, rules.Errors(), constraints.Errors())
		}
	}
	lib := ix.FindLibrary(m.Library)
	if lib == nil {
		return nil, fmt.Errorf("%s: no library %q", m.Class, m.Library)
	}
	opts := ccts.GenerateOptions{Annotate: m.Annotate, Index: ix}
	out := compiled{}
	for _, target := range ccts.Targets() {
		var res *ccts.GenOutput
		emit := func() { res, err = ccts.GenerateTargetDocument(lib, m.Root, target, opts) }
		if tr == nil {
			emit()
		} else {
			tr.do("gen."+target, emit)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: generating %s: %w", m.Class, target, err)
		}
		out[target] = res.Files
	}
	return out, nil
}

// outputChecker verifies pipeline outputs: files of targets with goldens
// must equal them, and every model's output must be byte-identical to
// its first output in the run.
type outputChecker struct {
	goldens map[string]map[string]map[string][]byte // class -> target -> file -> bytes
	first   map[string]compiled                     // class -> first output
}

func newOutputChecker(models []*model) (*outputChecker, error) {
	c := &outputChecker{goldens: map[string]map[string]map[string][]byte{}, first: map[string]compiled{}}
	for _, m := range models {
		g, err := goldens(m)
		if err != nil {
			return nil, err
		}
		c.goldens[m.Class] = g
	}
	return c, nil
}

// check returns nil when out is correct for m.
func (c *outputChecker) check(m *model, out compiled) error {
	for target, want := range c.goldens[m.Class] {
		files := out[target]
		if len(files) == 0 {
			return fmt.Errorf("%s/%s: no files", m.Class, target)
		}
		for _, f := range files {
			g, ok := want[f.Name]
			if !ok {
				return fmt.Errorf("%s/%s: %s has no golden file", m.Class, target, f.Name)
			}
			if !bytes.Equal(g, f.Data) {
				return fmt.Errorf("%s/%s: %s differs from its golden file", m.Class, target, f.Name)
			}
		}
	}
	ref, ok := c.first[m.Class]
	if !ok {
		c.first[m.Class] = out
		return nil
	}
	return sameCompiled(ref, out)
}

// sameCompiled reports the first difference between two outputs.
func sameCompiled(a, b compiled) error {
	if len(a) != len(b) {
		return fmt.Errorf("output has %d targets, want %d", len(b), len(a))
	}
	for target, fa := range a {
		fb := b[target]
		if len(fa) != len(fb) {
			return fmt.Errorf("%s: %d files, want %d", target, len(fb), len(fa))
		}
		for i := range fa {
			if fa[i].Name != fb[i].Name || !bytes.Equal(fa[i].Data, fb[i].Data) {
				return fmt.Errorf("%s: %s differs between runs", target, fa[i].Name)
			}
		}
	}
	return nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runCompile is the compile workload: every round runs the in-process
// library pipeline once over each model of compileModels, in order.
func runCompile(cfg *config, res *result) error {
	models, err := compileModels(cfg.seed)
	if err != nil {
		return err
	}
	checker, err := newOutputChecker(models)
	if err != nil {
		return err
	}
	lat := map[string][]float64{}
	// A round's time is the sum of its op times. Every op starts from a
	// freshly collected heap, so garbage collection runs at the same
	// points of every op and not wherever the previous op left the pacer.
	var cpu time.Duration // process CPU time spent inside timed ops
	round := func(_ int, timed bool) (time.Duration, error) {
		outs := make([]compiled, len(models))
		var elapsed time.Duration
		for i, m := range models {
			runtime.GC()
			cpu0 := selfCPU()
			t := time.Now()
			out, err := compileModel(m, nil)
			d := time.Since(t)
			if err != nil {
				return 0, err
			}
			elapsed += d
			if timed {
				cpu += selfCPU() - cpu0
				lat[m.Class] = append(lat[m.Class], ms(d))
			}
			outs[i] = out
		}
		for i, m := range models {
			res.attempt(timed, checker.check(m, outs[i]))
		}
		return elapsed, nil
	}

	// Set-up is the untimed warm-up round, made setupReps times.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := round(0, false)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	perSec, roundMs, err := measureRounds(cfg, res, cfg.rounds(), round)
	if err != nil {
		return err
	}
	hwm, err := procHWM(0)
	if err != nil {
		return err
	}
	res.classes = lat
	res.fast, res.slow = hpClass, "syn300"
	res.roundMs = median(roundMs)
	res.setE2E(median(setups), hwm, ms(cpu)/float64(res.timedOps), median(perSec))
	return nil
}
