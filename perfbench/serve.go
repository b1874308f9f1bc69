package main

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"time"
)

// genKey is one cached /v1/generate request shape.
type genKey struct {
	m              *model
	target, format string
}

func (k genKey) String() string { return k.m.Class + "/" + k.target + "/" + k.format }

func generateURL(base string, m *model, target, format string) string {
	q := url.Values{}
	q.Set("library", m.Library)
	q.Set("root", m.Root)
	q.Set("annotate", fmt.Sprint(m.Annotate))
	q.Set("target", target)
	q.Set("format", format)
	return base + "/v1/generate?" + q.Encode()
}

// serveOp is one request of the serve workload: a hit on a fixed key,
// or (miss non-nil) a fresh HoardingPermit variant generating XSD.
type serveOp struct {
	key  int
	miss []byte
}

// Serve round shape: 18 hits over the 12 fixed keys — every key once,
// plus 6 repeats that rotate so that every two rounds repeat each key
// once — in a seeded order, and 2 misses at fixed positions.
const (
	serveHits      = 18
	serveMissEvery = 9
)

// serveRound builds round r's op list; misses take the next variant
// names from *variant.
func serveRound(seed int64, r int, nkeys int, hp []byte, variant *int) ([]serveOp, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	var hits []int
	for i := 0; i < serveHits; i++ {
		hits = append(hits, (r*(serveHits-nkeys)+i)%nkeys)
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	var ops []serveOp
	for i, k := range hits {
		ops = append(ops, serveOp{key: k})
		if (i+1)%serveMissEvery == 0 {
			body, err := variantXMI(hp, variantName(seed, *variant))
			if err != nil {
				return nil, err
			}
			*variant++
			ops = append(ops, serveOp{key: -1, miss: body})
		}
	}
	return ops, nil
}

// parseFiles splits a /v1/generate body into its files, without
// diagnostics.json.
func parseFiles(r reply) ([]namedFile, error) {
	var out []namedFile
	ct := r.header.Get("Content-Type")
	mt, params, _ := mime.ParseMediaType(ct)
	switch mt {
	case "application/zip":
		zr, err := zip.NewReader(bytes.NewReader(r.body), int64(len(r.body)))
		if err != nil {
			return nil, err
		}
		for _, f := range zr.File {
			rc, err := f.Open()
			if err != nil {
				return nil, err
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, namedFile{f.Name, data})
		}
	case "multipart/mixed":
		mr := multipart.NewReader(bytes.NewReader(r.body), params["boundary"])
		for {
			p, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			data, err := io.ReadAll(p)
			if err != nil {
				return nil, err
			}
			out = append(out, namedFile{p.FileName(), data})
		}
	default:
		return nil, fmt.Errorf("unexpected Content-Type %q", ct)
	}
	if n := len(out); n == 0 || out[n-1].name != "diagnostics.json" {
		return nil, fmt.Errorf("response does not end with diagnostics.json")
	}
	return out[:len(out)-1], nil
}

type namedFile struct {
	name string
	data []byte
}

// sameFiles compares response files with pipeline output.
func sameFiles(got []namedFile, want compiled, target string) error {
	files := want[target]
	if len(got) != len(files) {
		return fmt.Errorf("%d files, want %d", len(got), len(files))
	}
	for i, f := range files {
		if got[i].name != f.Name || !bytes.Equal(got[i].data, f.Data) {
			return fmt.Errorf("file %s differs from the in-process pipeline output", f.Name)
		}
	}
	return nil
}

// serveState checks serve replies: a key's first response must match
// the in-process pipeline and is the reference for its hits.
type serveState struct {
	keys     []genKey
	expected map[string]compiled // class -> in-process output
	ref      map[int][]byte      // key -> first response body
}

func (s *serveState) check(op serveOp, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	outcome := r.header.Get("X-Ccserved-Cache")
	if op.miss != nil {
		if outcome != "miss" {
			return fmt.Errorf("variant answered from the cache (%s)", outcome)
		}
		files, err := parseFiles(r)
		if err != nil {
			return err
		}
		return sameFiles(files, s.expected[hpClass], "xsd")
	}
	k := s.keys[op.key]
	if ref, ok := s.ref[op.key]; ok {
		if outcome != "hit" {
			return fmt.Errorf("%s: repeat request was a %s", k, outcome)
		}
		if !bytes.Equal(ref, r.body) {
			return fmt.Errorf("%s: hit body differs from the first response", k)
		}
		return nil
	}
	files, err := parseFiles(r)
	if err != nil {
		return fmt.Errorf("%s: %w", k, err)
	}
	if err := sameFiles(files, s.expected[k.m.Class], k.target); err != nil {
		return fmt.Errorf("%s: %w", k, err)
	}
	s.ref[op.key] = r.body
	return nil
}

// runServe is the serve workload: one ccserved node, about 90% cache
// hits on 12 fixed keys and 10% misses on fresh HoardingPermit variants.
func runServe(cfg *config, res *result) error {
	hp, po, err := paperModels()
	if err != nil {
		return err
	}
	st := &serveState{expected: map[string]compiled{}}
	for _, m := range []*model{hp, po} {
		if st.expected[m.Class], err = compileModel(m, nil); err != nil {
			return err
		}
		for _, target := range []string{"xsd", "jsonschema", "proto"} {
			for _, format := range []string{"zip", "multipart"} {
				st.keys = append(st.keys, genKey{m, target, format})
			}
		}
	}
	// A variant must generate exactly the fixture's files.
	probe, err := variantXMI(hp.XMI, variantName(cfg.seed, 0))
	if err != nil {
		return err
	}
	pm := *hp
	pm.XMI = probe
	out, err := compileModel(&pm, nil)
	if err != nil {
		return err
	}
	if err := sameCompiled(st.expected[hpClass], out); err != nil {
		return fmt.Errorf("variant output: %w", err)
	}

	port, err := freePort()
	if err != nil {
		return err
	}
	variant := 1
	var n *node
	doRound := func(r int, timed bool) (time.Duration, error) {
		ops, err := serveRound(cfg.seed, r, len(st.keys), hp.XMI, &variant)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, op := range ops {
			var rep reply
			var err error
			class := "miss"
			if op.miss != nil {
				rep, err = do(cfg.client, http.MethodPost, generateURL(n.addr, hp, "xsd", "zip"), op.miss)
			} else {
				k := st.keys[op.key]
				if _, seen := st.ref[op.key]; seen {
					class = "hit"
				}
				rep, err = do(cfg.client, http.MethodPost, generateURL(n.addr, k.m, k.target, k.format), k.m.XMI)
			}
			if err != nil {
				return 0, err
			}
			if err := st.check(op, rep); err != nil {
				res.attempt(timed, err)
				continue
			}
			res.attempt(timed, nil)
			if timed {
				res.classes[class] = append(res.classes[class], rep.ms)
			}
		}
		return time.Since(start), nil
	}

	res.classes = map[string][]float64{}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if n != nil {
			cfg.client.CloseIdleConnections()
			n.kill()
		}
		st.ref = map[int][]byte{}
		start := time.Now()
		if n, err = startNode(cfg, fmt.Sprintf("serve-%d", rep), port); err != nil {
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
	hits, misses := len(res.classes["hit"]), len(res.classes["miss"])
	res.scrape["cache_hits"] = run.delta(0, "schemacache_hits_total")
	res.scrape["cache_misses"] = run.delta(0, "schemacache_misses_total")
	if int(res.scrape["cache_hits"]) != hits || int(res.scrape["cache_misses"]) != misses {
		res.attempt(false, fmt.Errorf("/metrics counted %g hits and %g misses for %d hit and %d miss ops",
			res.scrape["cache_hits"], res.scrape["cache_misses"], hits, misses))
	}
	run.finish(res, setups, "hit", "miss")
	return nil
}
