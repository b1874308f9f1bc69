package repo

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/metrics"
)

// gateOutcome is everything a publish, check or delete answers.
type gateOutcome struct {
	Version *Version
	Result  *CompatResult
	Compat  *CompatError
	Err     string
}

func outcomeOf(v *Version, res *CompatResult, err error) gateOutcome {
	out := gateOutcome{Version: v, Result: res}
	if errors.As(err, &out.Compat) {
		return out
	}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// TestCompatBaseMatchesColdGate runs one subject's history through a
// long-lived repository, whose gate diffs against memoised bases, and
// through one reopened before every call, whose gate re-imports every
// base: every answer, reports included, must be identical.
func TestCompatBaseMatchesColdGate(t *testing.T) {
	v1 := fixture.MustBuildHoardingPermit()
	v2 := fixture.MustBuildHoardingPermit()
	additive(v2)
	v3 := fixture.MustBuildHoardingPermit()
	additive(v3)
	v3.Model.FindENUM("CountryType_Code").AddLiteral("NOR", "Norway")
	brk := fixture.MustBuildHoardingPermit()
	breaking(brk)

	publish := func(f *fixture.HoardingPermit, edit func(*PublishRequest)) func(*Repo) gateOutcome {
		return func(r *Repo) gateOutcome {
			req := buildRequest(t, f)
			if edit != nil {
				edit(&req)
			}
			v, err := r.Publish(req)
			return outcomeOf(v, nil, err)
		}
	}
	check := func(f *fixture.HoardingPermit) func(*Repo) gateOutcome {
		return func(r *Repo) gateOutcome {
			req := buildRequest(t, f)
			res, err := r.Check(testSubject, req.Input, nil)
			return outcomeOf(nil, res, err)
		}
	}
	crlf := func(req *PublishRequest) {
		req.Input = bytes.ReplaceAll(req.Input, []byte("\n"), []byte("\r\n"))
		req.Model = nil
	}
	noModel := func(req *PublishRequest) { req.Model = nil }
	steps := []struct {
		name string
		op   func(*Repo) gateOutcome
	}{
		{"first version", publish(v1, nil)},
		{"compatible revision", publish(v2, nil)},
		{"dry run of a breaking revision", check(brk)},
		{"breaking revision rejected", publish(brk, nil)},
		{"compatible revision imported by the gate", publish(v3, noModel)},
		{"tombstone of the latest version", func(r *Repo) gateOutcome {
			return outcomeOf(nil, nil, r.Delete(testSubject, 3))
		}},
		{"dry run against the older live version", check(v3)},
		{"CRLF copy of the first input", publish(v1, crlf)},
		{"CRLF copy of the latest live input", publish(v2, crlf)},
		{"breaking revision under policy none", publish(brk, func(req *PublishRequest) { req.Policy = PolicyNone })},
		{"dry run under policy none", check(v2)},
		{"switch back to backward", publish(v2, func(req *PublishRequest) { req.Policy = PolicyBackward })},
		{"breaking revision rejected again", publish(brk, nil)},
	}

	warm := openRepo(t, t.TempDir(), Config{})
	reg := metrics.NewRegistry()
	warm.Instrument(reg)
	coldDir := t.TempDir()
	for _, step := range steps {
		got := step.op(warm)
		cold := openRepo(t, coldDir, Config{})
		want := step.op(cold)
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoised gate answered\n%+v\nre-importing gate answered\n%+v", step.name, got, want)
		}
		if got.Err != "" {
			t.Fatalf("%s: %s", step.name, got.Err)
		}
	}

	// Only the dry run after the tombstone re-imported its base.
	snap := reg.Snapshot()
	if hits, misses := snap["repo_compat_base_hits_total"], snap["repo_compat_base_misses_total"]; hits != 9 || misses != 1 {
		t.Errorf("memo answered %d hits and %d misses, want 9 and 1", hits, misses)
	}
}

// TestWarmPublishHitsCompatBase: a publish right after another diffs
// against the base the first one left; a reopened repository starts
// without bases.
func TestWarmPublishHitsCompatBase(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir, Config{})
	reg := metrics.NewRegistry()
	r.Instrument(reg)
	revision := func(n int) PublishRequest {
		f := fixture.MustBuildHoardingPermit()
		for i := 1; i < n; i++ {
			f.Model.FindENUM("CountryType_Code").AddLiteral(fmt.Sprintf("X%d", i), fmt.Sprintf("Land %d", i))
		}
		return buildRequest(t, f)
	}
	counts := func(reg *metrics.Registry) [2]int64 {
		snap := reg.Snapshot()
		return [2]int64{snap["repo_compat_base_hits_total"], snap["repo_compat_base_misses_total"]}
	}

	mustPublish(t, r, revision(1))
	mustPublish(t, r, revision(2))
	if got := counts(reg); got != [2]int64{1, 0} {
		t.Fatalf("warm publish counted [hits misses] = %v, want [1 0]", got)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = openRepo(t, dir, Config{})
	reg = metrics.NewRegistry()
	r.Instrument(reg)
	mustPublish(t, r, revision(3))
	mustPublish(t, r, revision(4))
	if got := counts(reg); got != [2]int64{1, 1} {
		t.Fatalf("after reopen [hits misses] = %v, want [1 1]", got)
	}
}

// TestCompatBaseConcurrentGates runs dry runs against one subject while
// its history advances and other subjects publish; run it under -race.
func TestCompatBaseConcurrentGates(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	const revisions = 6
	var chain []PublishRequest
	f := fixture.MustBuildHoardingPermit()
	for i := 0; i < revisions; i++ {
		if i > 0 {
			f.Model.FindENUM("CountryType_Code").AddLiteral(fmt.Sprintf("X%d", i), fmt.Sprintf("Land %d", i))
		}
		chain = append(chain, buildRequest(t, f))
	}
	superset := chain[revisions-1]
	brk := fixture.MustBuildHoardingPermit()
	breaking(brk)
	broken := buildRequest(t, brk)
	mustPublish(t, r, chain[0])

	var wg sync.WaitGroup
	done := make(chan struct{})
	gate := func(input []byte, model *core.Model, compatible bool) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := r.Check(testSubject, input, model)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Compatible != compatible {
				t.Errorf("check against version %d: compatible = %v, want %v", res.Against, res.Compatible, compatible)
				return
			}
		}
	}
	wg.Add(3)
	go gate(superset.Input, superset.Model, true)
	go gate(superset.Input, nil, true)
	go gate(broken.Input, broken.Model, false)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, req := range chain {
				req.Subject = fmt.Sprintf("other-%d", i)
				if _, err := r.Publish(req); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for _, req := range chain[1:] {
		if _, err := r.Publish(req); err != nil {
			t.Error(err)
			break
		}
	}
	if _, err := r.Publish(broken); !errors.As(err, new(*CompatError)) {
		t.Errorf("breaking publish: %v, want *CompatError", err)
	}
	close(done)
	wg.Wait()
}

// TestCompatBasesBudget: one entry per subject, charged its input size,
// with other subjects evicted to stay within the budget.
func TestCompatBasesBudget(t *testing.T) {
	var c compatBases
	m := &core.Model{}
	third := int64(compatBaseBudget / 3)
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("s%d", i), "sha", third, m)
		if c.bytes > compatBaseBudget || c.bytes != third*int64(len(c.subj)) {
			t.Fatalf("after %d puts: %d bytes in %d entries", i+1, c.bytes, len(c.subj))
		}
	}
	if len(c.subj) != 3 || c.get("s9", "sha") != m {
		t.Fatalf("memo holds %d entries, newest kept %v; want 3 including the newest", len(c.subj), c.get("s9", "sha") != nil)
	}
	c.put("s9", "other", 1, m)
	if c.get("s9", "sha") != nil || c.get("s9", "other") != m || len(c.subj) != 3 {
		t.Error("a subject's new base must replace its old one")
	}
	c.put("s9", "huge", compatBaseBudget+1, m)
	if c.get("s9", "other") != nil || c.get("s9", "huge") != nil {
		t.Error("an input larger than the budget must leave the subject without a base")
	}
	c.drop("s9")
	for name := range c.subj {
		c.drop(name)
	}
	if c.bytes != 0 {
		t.Errorf("empty memo accounts %d bytes", c.bytes)
	}
}
