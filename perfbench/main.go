// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload against the real code — the
// in-process library pipeline, or ccserved child processes driven over
// HTTP by one closed-loop client — checks every output, and prints every
// metric by name with its unit. Run it through run.sh from the
// repository root, which builds ccserved and this harness first:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
//
// Workloads: compile, serve, registry, cluster, or all (each in turn).
// Each run executes a fixed number of fixed-work rounds; a round is the
// seeded op list in a fixed interleaved order, so every run has the same
// class mix. Latency metrics are the p50 of one op class. With --trace 1
// the run also calls each layer's entry point inside spans, writes the
// spans to .bench_build, and reports per-layer metrics instead of the
// end-to-end ones.
//
// The last line of standard output is the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads in the order --workload all runs them.
var workloads = []string{"compile", "serve", "registry", "cluster"}

// roundsPerSecond sizes each workload's fixed round count: a run makes
// roundsPerSecond*seconds rounds, so --seconds 15 takes about fifteen
// seconds of measurement on a 2-core x86-64 machine.
var roundsPerSecond = map[string]float64{"compile": 3.5, "serve": 72, "registry": 57, "cluster": 35}

const (
	minRounds = 20
	// setupReps is how often a run sets the workload up; setup_s is the
	// median, and the last set-up is the one measured.
	setupReps = 5
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // ccserved binary
	out      string // build directory; run data goes below it
	runDir   string
	client   *http.Client
	procs    *procSet
}

func (c *config) rounds() int {
	return max(minRounds, int(roundsPerSecond[c.workload]*float64(c.seconds)))
}

// measureRounds runs the timed rounds 1..n and returns each round's ops
// per second and duration. It stops early once measuring has taken three
// times --seconds, so a run on a much slower machine still ends in time.
func measureRounds(cfg *config, res *result, n int, round func(r int, timed bool) (time.Duration, error)) (perSec, roundMs []float64, err error) {
	start := time.Now()
	limit := 3 * time.Duration(cfg.seconds) * time.Second
	for r := 1; r <= n && time.Since(start) < limit; r++ {
		ops := res.timedOps
		d, err := round(r, true)
		if err != nil {
			return nil, nil, err
		}
		perSec = append(perSec, float64(res.timedOps-ops)/d.Seconds())
		roundMs = append(roundMs, ms(d))
	}
	res.measuredS = time.Since(start).Seconds()
	return perSec, roundMs, nil
}

// serverRun is what the timed rounds of a server workload measured.
type serverRun struct {
	before, after   []map[string]float64 // /metrics of each node
	cpu             time.Duration        // CPU time of all nodes
	rssMB           float64              // summed peak RSS of the nodes
	perSec, roundMs []float64
}

// measureServers runs the timed rounds against nodes, scraping their
// /metrics and reading their CPU time around them.
func measureServers(cfg *config, res *result, nodes []*node, rounds int, round func(r int, timed bool) (time.Duration, error)) (*serverRun, error) {
	s := &serverRun{}
	scrapeAll := func() ([]map[string]float64, error) {
		var out []map[string]float64
		for _, n := range nodes {
			m, err := scrape(cfg.client, n)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	var err error
	if s.before, err = scrapeAll(); err != nil {
		return nil, err
	}
	cpu0, _, err := usage(nodes)
	if err != nil {
		return nil, err
	}
	if s.perSec, s.roundMs, err = measureRounds(cfg, res, rounds, round); err != nil {
		return nil, err
	}
	cpu1, rss, err := usage(nodes)
	if err != nil {
		return nil, err
	}
	s.cpu, s.rssMB = cpu1-cpu0, rss
	if s.after, err = scrapeAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// delta is the change of counter name on node i over the timed rounds.
func (s *serverRun) delta(i int, name string) float64 { return s.after[i][name] - s.before[i][name] }

// finish sets the end-to-end metrics, fast and slow naming the op
// classes behind fast_p50_ms and slow_p50_ms.
func (s *serverRun) finish(res *result, setups []float64, fast, slow string) {
	res.fast, res.slow = fast, slow
	res.roundMs = median(s.roundMs)
	res.setE2E(median(setups), s.rssMB, ms(s.cpu)/float64(res.timedOps), median(s.perSec))
}

func (c *config) track(n *node) { c.procs.add(n) }

// stopAll ends every child still running and waits for it.
func (c *config) stopAll() { c.procs.killAll() }

// procSet is every child process a run started; the signal handler
// reaches it too.
type procSet struct {
	mu    sync.Mutex
	nodes []*node
}

func (p *procSet) add(n *node) {
	p.mu.Lock()
	p.nodes = append(p.nodes, n)
	p.mu.Unlock()
}

func (p *procSet) killAll() {
	p.mu.Lock()
	nodes := p.nodes
	p.nodes = nil
	p.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// result collects one workload run.
type result struct {
	attempted, failed, timedOps int
	errs                        []string

	classes    map[string][]float64 // op class -> latencies (ms)
	fast, slow string               // the classes behind fast_p50_ms and slow_p50_ms
	e2e        map[string]float64
	scrape     map[string]float64 // /metrics deltas over the measured rounds
	catchup    []float64          // replica catch-up times (ms), cluster only
	roundMs    float64            // median round time
	measuredS  float64            // wall time of the timed rounds
}

// attempt counts one op; timed ops are the measured ones.
func (r *result) attempt(timed bool, err error) {
	r.attempted++
	if timed {
		r.timedOps++
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// setE2E fills the end-to-end metrics once classes, fast and slow are set.
func (r *result) setE2E(setupS, rssMB, cpuMsPerOp, opsPerS float64) {
	r.e2e = map[string]float64{
		"setup_s":       setupS,
		"peak_rss_mb":   rssMB,
		"cpu_ms_per_op": cpuMsPerOp,
		"ops_per_s":     opsPerS,
		"fast_p50_ms":   median(r.classes[r.fast]),
		"slow_p50_ms":   median(r.classes[r.slow]),
	}
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics of every workload. fast_p50_ms
// and slow_p50_ms are the p50 of the workload's cheapest and most
// expensive op class (see issueNames).
var e2eMetrics = []metricDef{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"cpu_ms_per_op", "ms"},
	{"ops_per_s", "1/s"}, {"fast_p50_ms", "ms"}, {"slow_p50_ms", "ms"},
}

// issueNames names the figures each workload reports under their own
// names: ops_per_s, fast_p50_ms and slow_p50_ms.
var issueNames = map[string][3]string{
	"compile":  {"models_per_s", "small_p50_ms", "large_p50_ms"},
	"serve":    {"ops_per_s", "hit_p50_ms", "miss_p50_ms"},
	"registry": {"ops_per_s", "read_p50_ms", "publish_p50_ms"},
	"cluster":  {"ops_per_s", "replica_read_p50_ms", "proxied_publish_p50_ms"},
}

func main() {
	cfg := &config{procs: &procSet{}}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "compile", "compile, serve, registry, cluster or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "target measuring time; sets the fixed round count")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/ccserved", "ccserved binary")
	fs.StringVar(&cfg.out, "out", ".bench_build", "build and run directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	cfg.client = newClient()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cfg.stopAll()
		os.Exit(1)
	}()

	err := run(cfg)
	cfg.client.CloseIdleConnections()
	cfg.stopAll()
	if cfg.runDir != "" {
		os.RemoveAll(cfg.runDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg *config) error {
	if _, err := os.Stat(cfg.bin); err != nil {
		return fmt.Errorf("ccserved binary: %w", err)
	}
	if _, err := os.Stat(filepath.Join("testdata", "golden")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return err
	}
	cfg.runDir = dir

	list := []string{cfg.workload}
	if cfg.workload == "all" {
		list = workloads
	}
	combined := map[string]any{}
	attempted, failed := 0, 0
	for _, w := range list {
		if _, ok := issueNames[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		wcfg := *cfg
		wcfg.workload = w
		wcfg.runDir = filepath.Join(cfg.runDir, w)
		if err := os.Mkdir(wcfg.runDir, 0o755); err != nil {
			return err
		}
		line, err := json.Marshal(environment(&wcfg))
		if err != nil {
			return err
		}
		fmt.Printf("env %s\n", line)
		res, metrics, err := runOne(&wcfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		attempted += res.attempted
		failed += res.failed
		for k, v := range metrics {
			if len(list) > 1 {
				k = w + "/" + k
			}
			combined[k] = v
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   combined,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runOne runs one workload and returns the metrics the result line
// carries: the end-to-end ones, or with --trace 1 the per-layer ones.
func runOne(cfg *config) (*result, map[string]any, error) {
	res := &result{scrape: map[string]float64{}}
	var err error
	switch cfg.workload {
	case "compile":
		err = runCompile(cfg, res)
	case "serve":
		err = runServe(cfg, res)
	case "registry":
		err = runRegistry(cfg, res)
	case "cluster":
		err = runCluster(cfg, res, clusterFull)
	}
	cfg.client.CloseIdleConnections()
	cfg.stopAll()
	if err != nil {
		return nil, nil, err
	}
	report(cfg, res)
	if res.attempted == 0 {
		return nil, nil, fmt.Errorf("no ops attempted")
	}
	out := map[string]any{}
	if !cfg.trace {
		for _, m := range e2eMetrics {
			out[m.name] = map[string]any{"value": res.e2e[m.name], "unit": m.unit}
		}
		return res, out, nil
	}
	layers, err := traceLayers(cfg, res)
	cfg.client.CloseIdleConnections()
	cfg.stopAll()
	if err != nil {
		return nil, nil, err
	}
	for _, m := range perLayerMetrics() {
		v, ok := layers[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("traced run did not measure %s", m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return res, out, nil
}

// report prints the run's figures under their own names, the failures
// and the class sample counts, ahead of the result line.
func report(cfg *config, res *result) {
	w := cfg.workload
	prefix := "metric"
	if cfg.trace {
		prefix = "untraced"
	}
	names := issueNames[w]
	for _, m := range e2eMetrics {
		label := m.name
		switch m.name {
		case "ops_per_s":
			label = names[0]
		case "fast_p50_ms":
			label = names[1]
		case "slow_p50_ms":
			label = names[2]
		}
		fmt.Printf("%s %s/%s %.6g %s\n", prefix, w, label, res.e2e[m.name], m.unit)
	}
	if pr, ok := res.classes["proxied_read"]; ok {
		fmt.Printf("%s %s/proxied_read_p50_ms %.6g ms\n", prefix, w, median(pr))
	}
	fmt.Printf("%s %s/fail_ratio %.6g ratio\n", prefix, w, float64(res.failed)/float64(max(1, res.attempted)))
	fmt.Printf("run %s timed_ops=%d measured_s=%.3f round_ms=%.4g\n", w, res.timedOps, res.measuredS, res.roundMs)
	classes := make([]string, 0, len(res.classes))
	for c := range res.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := res.classes[c]
		q, v, ok := tail(xs)
		tailText := "n/a"
		if ok {
			tailText = fmt.Sprintf("p%g=%.4g ms", q*100, v)
		}
		fmt.Printf("class %s/%s samples=%d p25=%.4g p50=%.4g p75=%.4g ms %s\n",
			w, c, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), tailText)
	}
	keys := make([]string, 0, len(res.scrape))
	for k := range res.scrape {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("scrape %s/%s %g\n", w, k, res.scrape[k])
	}
	for _, e := range res.errs {
		fmt.Printf("failure %s: %s\n", w, e)
	}
}

// environment records where and how the run measured.
func environment(cfg *config) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"rounds":       cfg.rounds(),
		"setup_reps":   setupReps,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpu,
		"go_version":   runtime.Version(),
		"data_fs":      fsType(cfg.runDir),
		"flush_policy": "ccserved defaults: blobs and WAL fsync'd before each publish is acknowledged, manifest checkpoint every 64 WAL records",
		"load":         "one closed-loop client goroutine, one keep-alive connection per node, no retries",
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
