package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
		ok    bool
	}{
		{n: 50, ok: false},
		{n: 99, ok: false},
		{n: 100, q: 0.9, value: 90, ok: true},    // 10 samples above the 90th
		{n: 109, q: 0.9, value: 99, ok: true},    // p99 would leave 1 above
		{n: 999, q: 0.9, value: 900, ok: true},   // p99 would leave 9 above
		{n: 1000, q: 0.99, value: 990, ok: true}, // exactly 10 above
		{n: 10000, q: 0.999, value: 9990, ok: true},
	} {
		q, v, ok := tail(seq(tc.n))
		if ok != tc.ok || q != tc.q || v != tc.value {
			t.Errorf("n=%d: tail = (%g, %g, %v), want (%g, %g, %v)", tc.n, q, v, ok, tc.q, tc.value, tc.ok)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
	if got := quantile(seq(100), 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2: counts once
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // only [90,100) lies inside the parent
		{ID: 6, Parent: 4, Start: 62, End: 65},
		{ID: 7, Start: 200, End: 250}, // a second root without children
	}
	want := map[int]int64{1: 100 - 40 - 10 - 10, 2: 20, 3: 30, 4: 10 - 3, 5: 30, 6: 3, 7: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(true)
	tr.beginOp()
	tr.do("op", func() {
		tr.do("a", func() { _ = make([]byte, 1<<20) })
		tr.do("b", func() {})
	})
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	root := tr.spans[0]
	for _, s := range tr.spans[1:] {
		if s.Parent != root.ID || s.Op != root.Op {
			t.Errorf("span %s: parent %d op %d, want parent %d op %d", s.Name, s.Parent, s.Op, root.ID, root.Op)
		}
		if s.Start < root.Start || s.End > root.End {
			t.Errorf("span %s lies outside its parent", s.Name)
		}
	}
	if tr.spans[1].AllocBytes < 1<<20 {
		t.Errorf("span a allocated %d bytes, want at least 1 MiB", tr.spans[1].AllocBytes)
	}
}
