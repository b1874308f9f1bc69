package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/contentaddr"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/schemacache"
	"github.com/go-ccts/ccts/internal/server"
	"github.com/go-ccts/ccts/internal/shard"
)

// pipelineLayers are the spans of one pipeline op besides the emitters.
var pipelineLayers = []string{"xmi.import", "profile.extract", "core.resolve", "validate.rules", "profile.render", "ocl.eval"}

// allocGroups map each <layer>.alloc_kb metric to the spans it sums.
var allocGroups = []struct {
	metric string
	spans  []string
}{
	{"xmi.alloc_kb", []string{"xmi.import"}},
	{"profile.alloc_kb", []string{"profile.extract", "profile.render"}},
	{"core.alloc_kb", []string{"core.resolve"}},
	{"validate.alloc_kb", []string{"validate.rules"}},
	{"ocl.alloc_kb", []string{"ocl.eval"}},
	{"gen.alloc_kb", nil}, // every gen.<target> span
}

// perLayerMetrics is the per-layer metric list of every traced run, in
// the order BENCHMARK.json lists it.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, class := range []string{"small", "large"} {
		for _, l := range pipelineLayers {
			out = append(out, metricDef{l + "_" + class + "_ms", "ms"})
		}
	}
	for _, t := range ccts.Targets() {
		out = append(out, metricDef{"gen." + t + "_ms", "ms"}, metricDef{"gen." + t + "_kb", "kb"})
	}
	for _, g := range allocGroups {
		out = append(out, metricDef{g.metric, "kb"})
	}
	return append(out,
		metricDef{"contentaddr.key_us", "us"},
		metricDef{"schemacache.hit_us", "us"},
		metricDef{"server.hit_handler_us", "us"},
		metricDef{"server.hit_allocs", "count"},
		metricDef{"server.hit_alloc_kb", "kb"},
		metricDef{"http.transport_us", "us"},
		metricDef{"repo.publish_ms", "ms"},
		metricDef{"repo.check_ms", "ms"},
		metricDef{"repo.version_file_us", "us"},
		metricDef{"repo.open_ms", "ms"},
		metricDef{"repo.wal_bytes_per_publish", "bytes"},
		metricDef{"repo.blob_bytes_per_publish", "bytes"},
		metricDef{"repo.dedup_ratio", "ratio"},
		metricDef{"disk.write_amp", "ratio"},
		metricDef{"shard.hop_ms", "ms"},
		metricDef{"shard.route_us", "us"},
		metricDef{"shard.proxied_ratio", "ratio"},
		metricDef{"repl.catchup_ms", "ms"},
		metricDef{"repl.resyncs", "count"},
		metricDef{"fast_p90_ms", "ms"},
		metricDef{"fast_p99_ms", "ms"},
		metricDef{"fast_samples", "count"},
		metricDef{"fast_tail_pct", "%"},
		metricDef{"slow_p90_ms", "ms"},
		metricDef{"slow_p99_ms", "ms"},
		metricDef{"slow_samples", "count"},
		metricDef{"slow_tail_pct", "%"},
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"scrape.cache_hits", "count"},
		metricDef{"scrape.cache_misses", "count"},
		metricDef{"scrape.proxied", "count"},
		metricDef{"scrape.resyncs", "count"},
		metricDef{"scrape.publishes", "count"},
	)
}

// sweepModels are the pipeline inputs of a workload's traced run: the
// compile round itself, or the HoardingPermit (small) and the
// workload's largest pipeline input (large).
func sweepModels(cfg *config) (models []*model, rounds int, err error) {
	if cfg.workload == "compile" {
		models, err = compileModels(cfg.seed)
		return models, 12, err
	}
	hp, po, err := paperModels()
	if err != nil {
		return nil, 0, err
	}
	if cfg.workload == "serve" {
		return []*model{hp, po}, 40, nil
	}
	data, err := subjectXMI(cfg.seed, 0, 1)
	if err != nil {
		return nil, 0, err
	}
	return []*model{hp, {Class: "subject", XMI: data, Library: "SynDoc", Root: "Document"}}, 40, nil
}

// traceLayers is the traced part of a --trace 1 run: it times the entry
// point of every layer on the workload's seeded inputs and writes the
// spans next to the build.
func traceLayers(cfg *config, res *result) (map[string]float64, error) {
	out := map[string]float64{}
	timing, allocs, err := pipelineSweep(cfg, out)
	if err != nil {
		return nil, err
	}
	hp, _, err := paperModels()
	if err != nil {
		return nil, err
	}
	if err := servingLayers(hp, out); err != nil {
		return nil, err
	}
	if err := repoLayers(cfg, out); err != nil {
		return nil, err
	}
	routeLayer(cfg, out)

	// Shard hop and replication catch-up come from a real cluster: the
	// cluster workload's own rounds, or a short probe cluster otherwise.
	cl := res
	if cfg.workload != "cluster" {
		cl = &result{scrape: map[string]float64{}}
		if err := runCluster(cfg, cl, clusterProbe); err != nil {
			return nil, fmt.Errorf("cluster probe: %w", err)
		}
		if cl.failed > 0 {
			return nil, fmt.Errorf("cluster probe: %s", strings.Join(cl.errs, "; "))
		}
	}
	out["shard.hop_ms"] = median(cl.classes["proxied_read"]) - median(cl.classes["local_read"])
	out["shard.proxied_ratio"] = cl.scrape["proxied"] / float64(cl.timedOps)
	out["repl.catchup_ms"] = median(cl.catchup)
	out["repl.resyncs"] = cl.scrape["resyncs"]

	for _, c := range []struct{ prefix, class string }{{"fast", res.fast}, {"slow", res.slow}} {
		xs := res.classes[c.class]
		out[c.prefix+"_p90_ms"] = quantile(xs, 0.9)
		out[c.prefix+"_p99_ms"] = quantile(xs, 0.99)
		out[c.prefix+"_samples"] = float64(len(xs))
		q, _, _ := tail(xs)
		out[c.prefix+"_tail_pct"] = q * 100
	}
	for _, k := range []string{"cache_hits", "cache_misses", "proxied", "resyncs", "publishes"} {
		out["scrape."+k] = res.scrape[k]
	}

	for _, m := range perLayerMetrics() {
		fmt.Printf("layer %s/%s %.6g %s\n", cfg.workload, m.name, out[m.name], m.unit)
	}
	doc, err := json.Marshal(map[string]any{
		"env":         environment(cfg),
		"untraced":    res.e2e,
		"per_layer":   out,
		"spans":       timing.spans,
		"alloc_spans": allocs.spans,
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("spans %s\n", path)
	return out, nil
}

// opKey names one layer's spans within one op.
type opKey struct {
	op   int
	name string
}

// byOp sums the self time (ms) and allocations (KB) of each op's layer
// spans and maps every op to its model class.
func byOp(tr *tracer) (class map[int]string, selfMs, allocKB map[opKey]float64) {
	self := selfTimes(tr.spans)
	class = map[int]string{}
	selfMs, allocKB = map[opKey]float64{}, map[opKey]float64{}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			class[s.Op] = strings.TrimPrefix(s.Name, "op.")
			continue
		}
		k := opKey{s.Op, s.Name}
		selfMs[k] += float64(self[s.ID]) / 1e6
		allocKB[k] += float64(s.AllocBytes) / 1024
	}
	return class, selfMs, allocKB
}

// perOp is the median over the ops of one class of the summed values of
// the named spans.
func perOp(opClass map[int]string, class string, names []string, vals map[opKey]float64) float64 {
	var xs []float64
	for op, c := range opClass {
		if c != class {
			continue
		}
		var sum float64
		for _, n := range names {
			sum += vals[opKey{op, n}]
		}
		xs = append(xs, sum)
	}
	return median(xs)
}

// sweepRound runs the pipeline once over every model, each op from a
// collected heap like in the compile workload, and returns the summed op
// time. With a tracer every op is a root span over its layer spans.
func sweepRound(models []*model, tr *tracer) (time.Duration, compiled, error) {
	var total time.Duration
	var hpOut compiled
	for _, m := range models {
		runtime.GC()
		var out compiled
		var err error
		start := time.Now()
		if tr == nil {
			out, err = compileModel(m, nil)
		} else {
			tr.beginOp()
			tr.do("op."+m.Class, func() { out, err = compileModel(m, tr) })
		}
		total += time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		if m.Class == hpClass {
			hpOut = out
		}
	}
	return total, hpOut, nil
}

// allocRounds is how many rounds measure allocations exactly; their
// stop-the-world reads keep them out of the timing rounds.
const allocRounds = 3

// pipelineSweep alternates untraced and traced rounds of the pipeline
// over the sweep models and derives the pipeline layer metrics, the
// trace coverage and the tracing overhead; separate rounds count each
// layer's allocations exactly.
func pipelineSweep(cfg *config, out map[string]float64) (timing, allocs *tracer, err error) {
	models, rounds, err := sweepModels(cfg)
	if err != nil {
		return nil, nil, err
	}
	small, large := models[0].Class, models[len(models)-1].Class
	timing, allocs = newTracer(false), newTracer(true)
	var untraced, traced []float64
	var hpOut compiled
	for r := 0; r < rounds; r++ {
		plain, o, err := sweepRound(models, nil)
		if err != nil {
			return nil, nil, err
		}
		withSpans, _, err := sweepRound(models, timing)
		if err != nil {
			return nil, nil, err
		}
		hpOut = o
		untraced = append(untraced, ms(plain))
		traced = append(traced, ms(withSpans))
	}
	for r := 0; r < allocRounds; r++ {
		if _, _, err := sweepRound(models, allocs); err != nil {
			return nil, nil, err
		}
	}

	opClass, selfMs, _ := byOp(timing)
	var layerTotal float64
	for _, v := range selfMs {
		layerTotal += v
	}
	for _, l := range pipelineLayers {
		out[l+"_small_ms"] = perOp(opClass, small, []string{l}, selfMs)
		out[l+"_large_ms"] = perOp(opClass, large, []string{l}, selfMs)
	}
	var genSpans []string
	for _, t := range ccts.Targets() {
		genSpans = append(genSpans, "gen."+t)
		out["gen."+t+"_ms"] = perOp(opClass, hpClass, []string{"gen." + t}, selfMs)
		var size int
		for _, f := range hpOut[t] {
			size += len(f.Data)
		}
		out["gen."+t+"_kb"] = float64(size) / 1024
	}
	allocClass, _, allocKB := byOp(allocs)
	for _, g := range allocGroups {
		spans := g.spans
		if spans == nil {
			spans = genSpans
		}
		out[g.metric] = perOp(allocClass, large, spans, allocKB)
	}
	out["trace.coverage"] = layerTotal / float64(rounds) / median(untraced)
	out["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	return timing, allocs, nil
}

// timeEach runs fn n times and returns the median duration in µs.
func timeEach(n int, fn func(i int) error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(xs), nil
}

const layerSamples = 300

// servingLayers times the cache-hit path in process: content keying,
// the schema cache, the HTTP handler, and the same request over a
// loopback connection.
func servingLayers(hp *model, out map[string]float64) error {
	fp := "v1|lib=" + hp.Library + "|root=" + hp.Root + "|target=xsd"
	var err error
	if out["contentaddr.key_us"], err = timeEach(layerSamples, func(int) error {
		contentaddr.Key(hp.XMI, fp)
		return nil
	}); err != nil {
		return err
	}

	cache := schemacache.New(64 << 20)
	key := contentaddr.Key(hp.XMI, fp)
	val := &schemacache.Value{Files: []schemacache.File{{Name: "a.xsd", Data: hp.XMI}}}
	compute := func() (*schemacache.Value, error) { return val, nil }
	ctx := context.Background()
	if _, _, err := cache.Do(ctx, key, compute); err != nil {
		return err
	}
	if out["schemacache.hit_us"], err = timeEach(layerSamples, func(int) error {
		_, outcome, err := cache.Do(ctx, key, compute)
		if err == nil && outcome != schemacache.Hit {
			err = fmt.Errorf("schema cache: warm key answered %s", outcome)
		}
		return err
	}); err != nil {
		return err
	}

	h := server.New(server.Config{}).Handler()
	path := generateURL("", hp, "xsd", "zip")
	newReq := func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(hp.XMI))
		req.Header.Set("Content-Type", "application/xml")
		return req
	}
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, newReq())
	if warm.Code != http.StatusOK {
		return fmt.Errorf("in-process generate: status %d: %s", warm.Code, warm.Body.String())
	}
	reqs := make([]*http.Request, layerSamples)
	recs := make([]*httptest.ResponseRecorder, layerSamples)
	for i := range reqs {
		reqs[i], recs[i] = newReq(), httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	handler, err := timeEach(layerSamples, func(i int) error {
		h.ServeHTTP(recs[i], reqs[i])
		return nil
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Ccserved-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), warm.Body.Bytes()) {
			return fmt.Errorf("in-process hit: status %d, cache %q", rec.Code, rec.Header().Get("X-Ccserved-Cache"))
		}
	}
	out["server.hit_handler_us"] = handler
	out["server.hit_allocs"] = float64(m1.Mallocs-m0.Mallocs) / layerSamples
	out["server.hit_alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / layerSamples / 1024

	ts := httptest.NewServer(h)
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	wire, err := timeEach(layerSamples, func(int) error {
		r, err := do(c, http.MethodPost, ts.URL+path, hp.XMI)
		if err == nil && (r.status != http.StatusOK || !bytes.Equal(r.body, warm.Body.Bytes())) {
			err = fmt.Errorf("loopback hit: status %d", r.status)
		}
		return err
	})
	if err != nil {
		return err
	}
	out["http.transport_us"] = wire - handler
	return nil
}

// repoLayers drives the repository in process on a scratch directory:
// a chain of compatible publishes of one subject, dry-run checks, file
// reads and reopening with WAL replay.
func repoLayers(cfg *config, out map[string]float64) error {
	const versions = 24
	dir := filepath.Join(cfg.runDir, "repo-layers")
	rp, err := repo.Open(dir, repo.Config{})
	if err != nil {
		return err
	}
	defer rp.Close()
	const subj = "layers"
	walPath := filepath.Join(dir, "wal.log")
	size := func(p string) int64 {
		if st, err := os.Stat(p); err == nil {
			return st.Size()
		}
		return 0
	}
	var publishMs, checkMs, walBytes, blobBytes, logical []float64
	var names []string
	for v := 1; v <= versions; v++ {
		input, err := subjectXMI(cfg.seed, 0, v)
		if err != nil {
			return err
		}
		mod, err := ccts.ImportXMIWithLimits(bytes.NewReader(input), ccts.DefaultImportLimits())
		if err != nil {
			return err
		}
		ix := ccts.ResolveModel(mod)
		gen, err := ccts.GenerateTargetDocument(ix.FindLibrary("SynDoc"), "Document", "xsd", ccts.GenerateOptions{Index: ix})
		if err != nil {
			return err
		}
		var files []repo.File
		bytesIn := len(input)
		for _, f := range gen.Files {
			files = append(files, repo.File{Name: f.Name, Data: f.Data})
			bytesIn += len(f.Data)
		}
		if v > 1 {
			start := time.Now()
			res, err := rp.Check(subj, input, mod)
			if err != nil {
				return err
			}
			if !res.Compatible {
				return fmt.Errorf("repo check: version %d is not a compatible revision", v)
			}
			checkMs = append(checkMs, ms(time.Since(start)))
		}
		wal0, blob0 := size(walPath), rp.Stats().BlobBytes
		start := time.Now()
		if _, err := rp.Publish(repo.PublishRequest{Subject: subj, Input: input, Fingerprint: "perfbench", RootElement: gen.RootElement, Files: files, Model: mod}); err != nil {
			return err
		}
		publishMs = append(publishMs, ms(time.Since(start)))
		walBytes = append(walBytes, float64(size(walPath)-wal0))
		blobBytes = append(blobBytes, float64(rp.Stats().BlobBytes-blob0))
		logical = append(logical, float64(bytesIn))
		if v == 1 {
			for _, f := range files {
				names = append(names, f.Name)
			}
		}
	}
	vf, err := timeEach(layerSamples, func(i int) error {
		_, err := rp.VersionFile(subj, 1+i%versions, names[i%len(names)])
		return err
	})
	if err != nil {
		return err
	}
	var openMs []float64
	for i := 0; i < 5; i++ {
		cp := fmt.Sprintf("%s-open-%d", dir, i)
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		start := time.Now()
		r2, err := repo.Open(cp, repo.Config{})
		if err != nil {
			return err
		}
		openMs = append(openMs, ms(time.Since(start)))
		r2.Close()
		os.RemoveAll(cp)
	}
	var amp []float64
	for i := range walBytes {
		amp = append(amp, (walBytes[i]+blobBytes[i])/logical[i])
	}
	out["repo.publish_ms"] = median(publishMs)
	out["repo.check_ms"] = median(checkMs)
	out["repo.version_file_us"] = vf
	out["repo.open_ms"] = median(openMs)
	out["repo.wal_bytes_per_publish"] = median(walBytes)
	out["repo.blob_bytes_per_publish"] = median(blobBytes)
	out["repo.dedup_ratio"] = rp.Stats().DedupRatio()
	out["disk.write_amp"] = median(amp)
	return nil
}

// routeLayer times the shard map's subject routing, in batches of 100
// lookups since one takes well under a microsecond.
func routeLayer(cfg *config, out map[string]float64) {
	m, err := shard.NewMap(1, 0, []shard.Shard{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}}, nil)
	if err != nil {
		panic(err) // a fixed two-shard map always validates
	}
	names := subjectNames(cfg.seed, 64)
	batch, _ := timeEach(layerSamples, func(i int) error {
		for j := 0; j < 100; j++ {
			m.Route(names[(i+j)%len(names)])
		}
		return nil
	})
	out["shard.route_us"] = batch / 100
}
