package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/go-ccts/ccts/internal/shard"
)

// clusterParams sizes a cluster run: the full workload, or the short
// probe a traced run of another workload makes for the shard and
// replication layers.
type clusterParams struct {
	name      string
	subjects  int
	rounds    int // 0: the config's round count
	setupReps int
}

var (
	clusterFull  = clusterParams{name: "cluster", subjects: 64, setupReps: setupReps}
	clusterProbe = clusterParams{name: "probe", subjects: 12, rounds: 15, setupReps: 1}
)

// clusterNodes are primaries A and B (shard IDs a and b, proxying
// wrong-shard requests) and, once started, the follower F of A.
type clusterNodes struct{ a, b, f *node }

func (c clusterNodes) all() []*node {
	out := []*node{c.a, c.b}
	if c.f != nil {
		out = append(out, c.f)
	}
	return out
}

func (c clusterNodes) kill() {
	for _, n := range c.all() {
		if n != nil {
			n.kill()
		}
	}
}

func primaryArgs(dir, self string) []string {
	return []string{"-repo", filepath.Join(dir, "repo"), "-shard-map", filepath.Join(dir, "shard.json"), "-shard-self", self, "-shard-proxy"}
}

// runCluster is the cluster workload: two shard primaries with proxying
// over a 2-entry map plus a follower F of A. All publishes and primary
// reads go to A, so B-owned subjects take a proxy hop; replica reads go
// to F.
func runCluster(cfg *config, res *result, p clusterParams) error {
	var ports [3]int
	for i := range ports {
		port, err := freePort()
		if err != nil {
			return err
		}
		ports[i] = port
	}
	addr := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
	m, err := shard.NewMap(1, 0, []shard.Shard{{ID: "a", Addr: addr(0)}, {ID: "b", Addr: addr(1)}}, nil)
	if err != nil {
		return err
	}
	// Half the subjects are owned by each shard whatever the seed, so
	// every seed publishes equally often to each subject.
	var seeded []*subject
	owned := map[string]int{}
	for _, s := range newSubjects(cfg.seed, 8*p.subjects) {
		s.owner = m.Route(s.name).Owner.ID
		if owned[s.owner] < p.subjects/2 {
			owned[s.owner]++
			seeded = append(seeded, s)
		}
	}
	if owned["a"] != p.subjects/2 || owned["b"] != p.subjects/2 {
		return fmt.Errorf("the shard map gives A %d and B %d of the drawn subjects; want %d each", owned["a"], owned["b"], p.subjects/2)
	}

	base := filepath.Join(cfg.runDir, p.name)
	seedDirs := [2]string{base + "-seed-a", base + "-seed-b"}
	var seeders clusterNodes
	for i, d := range seedDirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		if err := shard.SaveMap(filepath.Join(d, "shard.json"), m); err != nil {
			return err
		}
		n, err := startNode(cfg, fmt.Sprintf("%s-seed-%d", p.name, i), ports[i], primaryArgs(d, []string{"a", "b"}[i])...)
		if err != nil {
			return err
		}
		if i == 0 {
			seeders.a = n
		} else {
			seeders.b = n
		}
	}
	for _, n := range seeders.all() {
		if err := n.waitHealthy(cfg.client); err != nil {
			return err
		}
	}
	if err := seedSubjects(cfg, seeders.a.addr, seeded, 1); err != nil {
		return err
	}
	cfg.client.CloseIdleConnections()
	seeders.kill()

	var (
		nodes      clusterNodes
		subjects   []*subject
		replicated map[string]int // subject -> versions F is known to hold
	)
	split := func() (a, b []*subject) {
		for _, s := range subjects {
			if s.owner == "a" {
				a = append(a, s)
			} else {
				b = append(b, s)
			}
		}
		return a, b
	}
	// caughtUp waits until F lists version v of s.
	caughtUp := func(s *subject, v int) error {
		start := time.Now()
		for time.Since(start) < 20*time.Second {
			var doc struct {
				Versions []versionInfo `json:"versions"`
			}
			if err := getJSON(cfg.client, versionsURL(nodes.f.addr, s.name), &doc); err == nil {
				if n := len(doc.Versions); n > 0 && doc.Versions[n-1].Number >= v {
					return nil
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
		return fmt.Errorf("follower did not replicate %s version %d within 20s", s.name, v)
	}

	type op struct {
		class string
		pub   *publishOp
		read  *readOp
		url   string
	}
	doRound := func(r int, timed bool) (time.Duration, error) {
		aS, bS := split()
		rng := rand.New(rand.NewSource(cfg.seed*131 + int64(r)))
		lp, err := preparePublish(cfg.seed, aS[r%len(aS)])
		if err != nil {
			return 0, err
		}
		pp, err := preparePublish(cfg.seed, bS[r%len(bS)])
		if err != nil {
			return 0, err
		}
		read := func(class string, s *subject, base string) op {
			rd := drawRead(rng, s)
			if class == "replica_read" {
				v := s.versions[rng.Intn(replicated[s.name])]
				rd = readOp{s: s, v: v.Number, file: v.Files[rng.Intn(len(v.Files))]}
			}
			return op{class: class, read: &rd, url: fileURL(base, s.name, rd.v, rd.file.Name)}
		}
		var ops []op
		ops = append(ops, op{class: "local_publish", pub: &lp, url: publishURL(nodes.a.addr, lp.s.name)})
		for i := 0; i < 3; i++ {
			if i == 1 {
				ops = append(ops, op{class: "proxied_publish", pub: &pp, url: publishURL(nodes.a.addr, pp.s.name)})
			}
			ops = append(ops,
				read("local_read", aS[rng.Intn(len(aS))], nodes.a.addr),
				read("proxied_read", bS[rng.Intn(len(bS))], nodes.a.addr),
				read("replica_read", aS[rng.Intn(len(aS))], nodes.f.addr))
		}
		start := time.Now()
		var acked time.Time
		for _, o := range ops {
			var rep reply
			var err error
			if o.pub != nil {
				rep, err = do(cfg.client, http.MethodPost, o.url, o.pub.body)
			} else {
				rep, err = do(cfg.client, http.MethodGet, o.url, nil)
			}
			if err != nil {
				return 0, err
			}
			if o.pub != nil {
				err = checkPublish(*o.pub, rep)
				if o.class == "local_publish" {
					acked = time.Now()
				}
			} else {
				err = checkRead(*o.read, rep)
			}
			res.attempt(timed, err)
			if err == nil && timed {
				res.classes[o.class] = append(res.classes[o.class], rep.ms)
			}
		}
		elapsed := time.Since(start)
		// Replication catch-up, outside the round time: from the ack of
		// A's local publish until F lists the version.
		if n := len(lp.s.versions); n > replicated[lp.s.name] {
			if err := caughtUp(lp.s, n); err != nil {
				return 0, err
			}
			if timed {
				res.catchup = append(res.catchup, ms(time.Since(acked)))
			}
			replicated[lp.s.name] = n
		}
		return elapsed, nil
	}

	res.classes = map[string][]float64{}
	var setups []float64
	for rep := 0; rep < p.setupReps; rep++ {
		if nodes.a != nil {
			cfg.client.CloseIdleConnections()
			nodes.kill()
		}
		dirs := [3]string{}
		for i, d := range seedDirs {
			dirs[i] = fmt.Sprintf("%s-%d-%c", base, rep, 'a'+i)
			if err := copyDir(d, dirs[i]); err != nil {
				return err
			}
		}
		dirs[2] = fmt.Sprintf("%s-%d-f", base, rep)
		subjects = cloneSubjects(seeded)
		replicated = map[string]int{}
		start := time.Now()
		if nodes.a, err = startNode(cfg, fmt.Sprintf("%s-%d-a", p.name, rep), ports[0], primaryArgs(dirs[0], "a")...); err != nil {
			return err
		}
		if nodes.b, err = startNode(cfg, fmt.Sprintf("%s-%d-b", p.name, rep), ports[1], primaryArgs(dirs[1], "b")...); err != nil {
			return err
		}
		for _, n := range []*node{nodes.a, nodes.b} {
			if err := n.waitHealthy(cfg.client); err != nil {
				return err
			}
		}
		if nodes.f, err = startNode(cfg, fmt.Sprintf("%s-%d-f", p.name, rep), ports[2], "-repo", dirs[2], "-replica-of", nodes.a.addr); err != nil {
			return err
		}
		if err := nodes.f.waitHealthy(cfg.client); err != nil {
			return err
		}
		for _, s := range subjects {
			if s.owner != "a" {
				continue
			}
			if err := caughtUp(s, len(s.versions)); err != nil {
				return err
			}
			replicated[s.name] = len(s.versions)
		}
		if _, err := doRound(0, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	rounds := p.rounds
	if rounds == 0 {
		rounds = cfg.rounds()
	}
	run, err := measureServers(cfg, res, nodes.all(), rounds, doRound)
	if err != nil {
		return err
	}
	proxiedOps := len(res.classes["proxied_publish"]) + len(res.classes["proxied_read"])
	pubOps := len(res.classes["proxied_publish"]) + len(res.classes["local_publish"])
	res.scrape["proxied"] = run.delta(0, "shard_proxied_total")
	res.scrape["resyncs"] = run.delta(2, "repl_resync_total")
	res.scrape["publishes"] = run.delta(0, "repo_publishes_total") + run.delta(1, "repo_publishes_total")
	if int(res.scrape["proxied"]) != proxiedOps || res.scrape["resyncs"] != 0 || int(res.scrape["publishes"]) != pubOps {
		res.attempt(false, fmt.Errorf("/metrics counted %g proxied requests, %g resyncs and %g publishes for %d proxied and %d publish ops",
			res.scrape["proxied"], res.scrape["resyncs"], res.scrape["publishes"], proxiedOps, pubOps))
	}
	run.finish(res, setups, "replica_read", "proxied_publish")
	return nil
}
