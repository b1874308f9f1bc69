package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"
)

// Registry workload shape: regSubjects subjects pre-seeded with
// regSeedVersions versions each; a round is one publish among regReads
// reads. The 120 seeding publishes are not a multiple of the repository's
// 64-record checkpoint interval, so opening the seeded directory replays
// WAL records.
const (
	regSubjects     = 60
	regSeedVersions = 2
	regReads        = 8
)

type fileRef struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

type versionInfo struct {
	Number int       `json:"number"`
	Files  []fileRef `json:"files"`
}

// subject is the client's record of one subject: what it published.
type subject struct {
	index    int
	name     string
	owner    string // shard ID in the cluster workload
	versions []versionInfo
}

func cloneSubjects(in []*subject) []*subject {
	out := make([]*subject, len(in))
	for i, s := range in {
		cp := *s
		cp.versions = append([]versionInfo(nil), s.versions...)
		out[i] = &cp
	}
	return out
}

func newSubjects(seed int64, n int) []*subject {
	out := make([]*subject, n)
	for i, name := range subjectNames(seed, n) {
		out[i] = &subject{index: i, name: name}
	}
	return out
}

func publishURL(base, subj string) string {
	return base + "/v1/repo/subjects/" + subj + "/versions?library=SynDoc&root=Document"
}

func versionsURL(base, subj string) string {
	return base + "/v1/repo/subjects/" + subj + "/versions"
}

func fileURL(base, subj string, v int, file string) string {
	return fmt.Sprintf("%s/v1/repo/subjects/%s/versions/%d?file=%s", base, subj, v, url.QueryEscape(file))
}

// publishOp is a prepared publish: the next version of a subject.
type publishOp struct {
	s    *subject
	body []byte
}

func preparePublish(seed int64, s *subject) (publishOp, error) {
	body, err := subjectXMI(seed, s.index, len(s.versions)+1)
	return publishOp{s: s, body: body}, err
}

// checkPublish verifies a publish reply and records the new version.
func checkPublish(p publishOp, r reply) error {
	if r.status != http.StatusCreated {
		return fmt.Errorf("publish %s: status %d: %.300s", p.s.name, r.status, r.body)
	}
	var doc struct {
		Version versionInfo `json:"version"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return fmt.Errorf("publish %s: %w", p.s.name, err)
	}
	v := doc.Version
	if want := len(p.s.versions) + 1; v.Number != want || len(v.Files) == 0 {
		return fmt.Errorf("publish %s: got version %d with %d files, want version %d", p.s.name, v.Number, len(v.Files), want)
	}
	p.s.versions = append(p.s.versions, v)
	return nil
}

// readOp fetches one stored schema file.
type readOp struct {
	s    *subject
	v    int
	file fileRef
}

func drawRead(rng *rand.Rand, s *subject) readOp {
	v := s.versions[rng.Intn(len(s.versions))]
	return readOp{s: s, v: v.Number, file: v.Files[rng.Intn(len(v.Files))]}
}

func checkRead(op readOp, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("read %s/%d/%s: status %d: %.200s", op.s.name, op.v, op.file.Name, r.status, r.body)
	}
	sum := sha256.Sum256(r.body)
	if hex.EncodeToString(sum[:]) != op.file.SHA256 {
		return fmt.Errorf("read %s/%d/%s: bytes differ from the published file", op.s.name, op.v, op.file.Name)
	}
	return nil
}

// seedSubjects publishes versions 1..n of every subject through base.
func seedSubjects(cfg *config, base string, subjects []*subject, n int) error {
	for v := 1; v <= n; v++ {
		for _, s := range subjects {
			p, err := preparePublish(cfg.seed, s)
			if err != nil {
				return err
			}
			r, err := do(cfg.client, http.MethodPost, publishURL(base, s.name), p.body)
			if err != nil {
				return err
			}
			if err := checkPublish(p, r); err != nil {
				return fmt.Errorf("seeding: %w", err)
			}
		}
	}
	return nil
}

// registryRound is round r's op list: regReads skewed reads with the
// publish in the middle. The publishing subject walks a seeded
// permutation; reads draw subjects by a Zipf law over another one.
type registryRound struct {
	publish publishOp
	reads   []readOp
}

func buildRegistryRound(seed int64, r int, subjects []*subject) (registryRound, error) {
	rng := rand.New(rand.NewSource(seed*31 + int64(r)))
	order := rand.New(rand.NewSource(seed)).Perm(len(subjects))
	pub, err := preparePublish(seed, subjects[order[r%len(subjects)]])
	if err != nil {
		return registryRound{}, err
	}
	hot := rand.New(rand.NewSource(seed + 1)).Perm(len(subjects))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(subjects)-1))
	rr := registryRound{publish: pub}
	for i := 0; i < regReads; i++ {
		rr.reads = append(rr.reads, drawRead(rng, subjects[hot[zipf.Uint64()]]))
	}
	return rr, nil
}

// runRegistry is the registry workload: one repo-backed node under the
// backward compatibility policy, pre-seeded with far more subjects than
// clients; one compatible publish for every eight reads.
func runRegistry(cfg *config, res *result) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	seedDir := filepath.Join(cfg.runDir, "registry-seed")
	seeder, err := startNode(cfg, "registry-seed", port, "-repo", seedDir)
	if err != nil {
		return err
	}
	if err := seeder.waitHealthy(cfg.client); err != nil {
		return err
	}
	seeded := newSubjects(cfg.seed, regSubjects)
	if err := seedSubjects(cfg, seeder.addr, seeded, regSeedVersions); err != nil {
		return err
	}
	// Every publish was acknowledged durably; a kill leaves WAL records
	// since the last checkpoint for the next open to replay.
	cfg.client.CloseIdleConnections()
	seeder.kill()

	res.classes = map[string][]float64{}
	var n *node
	var subjects []*subject
	doRound := func(r int, timed bool) (time.Duration, error) {
		rr, err := buildRegistryRound(cfg.seed, r, subjects)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i, rd := range rr.reads {
			if i == len(rr.reads)/2 {
				rep, err := do(cfg.client, http.MethodPost, publishURL(n.addr, rr.publish.s.name), rr.publish.body)
				if err != nil {
					return 0, err
				}
				err = checkPublish(rr.publish, rep)
				res.attempt(timed, err)
				if err == nil && timed {
					res.classes["publish"] = append(res.classes["publish"], rep.ms)
				}
			}
			rep, err := do(cfg.client, http.MethodGet, fileURL(n.addr, rd.s.name, rd.v, rd.file.Name), nil)
			if err != nil {
				return 0, err
			}
			err = checkRead(rd, rep)
			res.attempt(timed, err)
			if err == nil && timed {
				res.classes["read"] = append(res.classes["read"], rep.ms)
			}
		}
		return time.Since(start), nil
	}

	var setups []float64
	var dir string
	for rep := 0; rep < setupReps; rep++ {
		if n != nil {
			cfg.client.CloseIdleConnections()
			n.kill()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.runDir, fmt.Sprintf("registry-%d", rep))
		if err := copyDir(seedDir, dir); err != nil {
			return err
		}
		subjects = cloneSubjects(seeded)
		start := time.Now()
		if n, err = startNode(cfg, fmt.Sprintf("registry-%d", rep), port, "-repo", dir); err != nil {
			return err
		}
		if err := n.waitHealthy(cfg.client); err != nil {
			return err
		}
		if _, err := doRound(0, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	run, err := measureServers(cfg, res, []*node{n}, cfg.rounds(), doRound)
	if err != nil {
		return err
	}
	pubs := len(res.classes["publish"])
	res.scrape["publishes"] = run.delta(0, "repo_publishes_total")
	res.scrape["cache_misses"] = run.delta(0, "schemacache_misses_total")
	res.scrape["cache_hits"] = run.delta(0, "schemacache_hits_total")
	if int(res.scrape["publishes"]) != pubs || int(res.scrape["cache_misses"]) != pubs || res.scrape["cache_hits"] != 0 {
		res.attempt(false, fmt.Errorf("/metrics counted %g publishes, %g cache misses and %g hits for %d publish ops",
			res.scrape["publishes"], res.scrape["cache_misses"], res.scrape["cache_hits"], pubs))
	}
	run.finish(res, setups, "read", "publish")
	return nil
}
