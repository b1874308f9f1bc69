package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(q, len(s))]
}

// tailQuantiles are the tail percentiles a timing may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tail picks the highest tail percentile that has at least ten samples
// beyond it and returns it with its value; ok is false when even p90
// lacks them.
func tail(xs []float64) (q, v float64, ok bool) {
	s := sortedCopy(xs)
	for _, q := range tailQuantiles {
		i := rank(q, len(s))
		if len(s)-1-i >= 10 {
			return q, s[i], true
		}
	}
	return 0, 0, false
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is 0 for the root span of an op.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Op         int    `json:"op"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is not safe for concurrent use: the traced run is single-threaded.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes of the spans enclosing the current call
	op    int
	// exact makes allocation counts byte-exact by reading
	// runtime.MemStats, which stops the world; without it spans read the
	// cheap runtime/metrics counter, which lags by per-thread caches.
	exact  bool
	ms     runtime.MemStats
	allocs []metrics.Sample
}

func newTracer(exact bool) *tracer {
	return &tracer{t0: time.Now(), exact: exact, allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// allocated reads the cumulative count of heap bytes allocated.
func (t *tracer) allocated() uint64 {
	if t.exact {
		runtime.ReadMemStats(&t.ms)
		return t.ms.TotalAlloc
	}
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// beginOp starts a new op; the spans recorded until the next beginOp
// share its ID.
func (t *tracer) beginOp() { t.op++ }

// do runs fn inside a span named name, recording its interval and the
// heap bytes it allocated. The allocation counter is read outside the
// timed interval, so its cost lands in the enclosing span's self time.
func (t *tracer) do(name string, fn func()) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	before := t.allocated()
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, idx)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[idx]
	sp.Start, sp.End = int64(start), int64(end)
	sp.AllocBytes = t.allocated() - before
}

// selfTimes maps every span ID to its self time: the span's duration
// minus the part of its interval its children cover. Overlapping
// children count once, and the parts of a child outside its parent do
// not count.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curStart, curEnd int64
		have := false
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			switch {
			case !have:
				curStart, curEnd, have = a, b, true
			case a <= curEnd:
				curEnd = max(curEnd, b)
			default:
				covered += curEnd - curStart
				curStart, curEnd = a, b
			}
		}
		if have {
			covered += curEnd - curStart
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
