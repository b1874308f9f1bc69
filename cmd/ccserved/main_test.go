package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/server"
)

func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "--help"} {
		t.Run(arg, func(t *testing.T) {
			if err := run([]string{arg}); !errors.Is(err, flag.ErrHelp) {
				t.Errorf("run(%q) = %v, want flag.ErrHelp (treated as success)", arg, err)
			}
		})
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0",
		"-max-inflight", "7",
		"-request-timeout", "5s",
		"-cache-bytes", "1024",
		"-limits", "unlimited",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:0" {
		t.Errorf("addr = %q", cfg.addr)
	}
	if cfg.server.MaxInFlight != 7 {
		t.Errorf("inflight = %d, want 7", cfg.server.MaxInFlight)
	}
	if cfg.server.RequestTimeout != 5*time.Second {
		t.Errorf("request timeout = %v", cfg.server.RequestTimeout)
	}
	if cfg.server.CacheBytes != 1024 {
		t.Errorf("cache bytes = %d", cfg.server.CacheBytes)
	}
	// The server the flags configure must parse without limits: a model
	// past the default MaxAttributes validates.
	if rec := serve(cfg.server, http.MethodPost, "/v1/validate", wideXMI(t, nil)); rec.Code != http.StatusOK {
		t.Errorf("-limits unlimited: validate status %d, want 200: %s", rec.Code, rec.Body)
	}
	cfg, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(cfg.server, http.MethodPost, "/v1/validate", wideXMI(t, nil)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "MaxAttributes") {
		t.Errorf("-limits default: validate status %d, want 400 MaxAttributes: %s", rec.Code, rec.Body)
	}
}

// wideXMI is the HoardingPermit fixture, edited by edit when non-nil, as
// XMI whose uml:Model element carries 300 extra attributes: more than
// limits.Default allows one element.
func wideXMI(t *testing.T, edit func(*fixture.HoardingPermit)) []byte {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(f)
	}
	var buf bytes.Buffer
	if err := ccts.ExportXMI(f.Model, &buf); err != nil {
		t.Fatal(err)
	}
	var attrs strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&attrs, ` extra%d="%d"`, i, i)
	}
	doc := strings.Replace(buf.String(), "<uml:Model ", "<uml:Model"+attrs.String()+" ", 1)
	if doc == buf.String() {
		t.Fatal("exported XMI has no <uml:Model element")
	}
	return []byte(doc)
}

// serve answers one request from a server built from cfg.
func serve(cfg server.Config, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	server.New(cfg).Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// TestUnlimitedReachesCompatGate publishes a model only unlimited
// parsing accepts, reopens the repository so the compatibility gate must
// re-import the stored version, and publishes a compatible revision: the
// repository run opens must parse under the server's limits.
func TestUnlimitedReachesCompatGate(t *testing.T) {
	cfg, err := parseFlags([]string{"-limits", "unlimited", "-repo", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const path = "/v1/repo/subjects/hoarding-permit/versions?library=EB005-HoardingPermit&root=HoardingPermit"
	revisions := [][]byte{
		wideXMI(t, nil),
		wideXMI(t, func(f *fixture.HoardingPermit) {
			f.Model.FindENUM("CountryType_Code").AddLiteral("NZL", "New Zealand")
		}),
	}
	for i, body := range revisions {
		rp, err := repo.Open(cfg.repoDir, cfg.repoConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		sc := cfg.server
		sc.Repo = rp
		rec := serve(sc, http.MethodPost, path, body)
		if err := rp.Close(); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusCreated {
			t.Fatalf("publish %d: status %d, want 201: %s", i+1, rec.Code, rec.Body)
		}
	}
}

func TestParseFlagsOverloadControls(t *testing.T) {
	// Defaults: 500ms queue wait, rate limiting off, 2s probe.
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.MaxQueueWait != 500*time.Millisecond {
		t.Errorf("default MaxQueueWait = %v", cfg.server.MaxQueueWait)
	}
	if cfg.server.RatePerClient != 0 || cfg.server.RateBurst != 0 {
		t.Errorf("rate limiting enabled by default: %v/%d", cfg.server.RatePerClient, cfg.server.RateBurst)
	}
	if cfg.probeInterval != 2*time.Second {
		t.Errorf("default probe interval = %v", cfg.probeInterval)
	}

	cfg, err = parseFlags([]string{
		"-max-queue-wait", "0",
		"-rate", "2.5", "-rate-burst", "10",
		"-probe-interval", "100ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.MaxQueueWait != 0 {
		t.Errorf("MaxQueueWait = %v, want 0", cfg.server.MaxQueueWait)
	}
	if cfg.server.RatePerClient != 2.5 || cfg.server.RateBurst != 10 {
		t.Errorf("rate = %v/%d, want 2.5/10", cfg.server.RatePerClient, cfg.server.RateBurst)
	}
	if cfg.probeInterval != 100*time.Millisecond {
		t.Errorf("probe interval = %v", cfg.probeInterval)
	}
}

func TestParseFlagsRepo(t *testing.T) {
	// Default: no repository, backward policy.
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.repoDir != "" || cfg.repoPolicy != repo.PolicyBackward {
		t.Errorf("defaults = %q/%v", cfg.repoDir, cfg.repoPolicy)
	}

	// parseFlags records the directory but must not create it; the
	// repository is opened in run.
	dir := filepath.Join(t.TempDir(), "repo")
	cfg, err = parseFlags([]string{"-repo", dir, "-repo-policy", "none"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.repoDir != dir || cfg.repoPolicy != repo.PolicyNone {
		t.Errorf("repo flags = %q/%v", cfg.repoDir, cfg.repoPolicy)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("parseFlags created the repository directory: %v", err)
	}

	if _, err := parseFlags([]string{"-repo-policy", "strict"}); err == nil {
		t.Error("unknown repo policy accepted")
	}
}

func TestParseFlagsShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	mapPath := filepath.Join(t.TempDir(), "map.json")

	cfg, err := parseFlags([]string{"-repo", dir, "-shard-map", mapPath, "-shard-self", "a", "-shard-proxy"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shardMap != mapPath || cfg.shardSelf != "a" || !cfg.shardProxy {
		t.Errorf("shard flags = %q/%q/%v", cfg.shardMap, cfg.shardSelf, cfg.shardProxy)
	}

	// Every incomplete combination is refused at parse time, before
	// anything opens.
	for _, args := range [][]string{
		{"-shard-map", mapPath},                            // no repo, no self
		{"-repo", dir, "-shard-map", mapPath},              // no self
		{"-shard-map", mapPath, "-shard-self", "a"},        // no repo
		{"-shard-self", "a"},                               // self without map
		{"-shard-proxy"},                                   // proxy without map
		{"-repo", dir, "-shard-self", "a", "-shard-proxy"}, // both without map
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted an incomplete shard config", args)
		}
	}
}

func TestParseFlagsShardSupervise(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	mapPath := filepath.Join(t.TempDir(), "map.json")

	cfg, err := parseFlags([]string{"-repo", dir, "-shard-map", mapPath, "-shard-self", "a", "-shard-supervise"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.shardSupervise {
		t.Error("-shard-supervise not recorded")
	}

	// A shard-aware standby: follows the primary, mounts the router, and
	// may itself supervise.
	cfg, err = parseFlags([]string{"-repo", dir, "-replica-of", "http://primary", "-shard-replica-of-map", mapPath, "-shard-self", "c", "-shard-supervise"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shardReplicaMap != mapPath || cfg.shardSelf != "c" || !cfg.shardSupervise {
		t.Errorf("standby flags = %q/%q/%v", cfg.shardReplicaMap, cfg.shardSelf, cfg.shardSupervise)
	}

	for _, args := range [][]string{
		{"-shard-supervise"}, // supervise without any map
		{"-repo", dir, "-replica-of", "http://p", "-shard-supervise"},                                                          // replica without shard map
		{"-repo", dir, "-shard-replica-of-map", mapPath, "-shard-self", "c"},                                                   // standby map without -replica-of
		{"-repo", dir, "-replica-of", "http://p", "-shard-replica-of-map", mapPath},                                            // no self
		{"-repo", dir, "-replica-of", "http://p", "-shard-replica-of-map", mapPath, "-shard-map", mapPath, "-shard-self", "c"}, // both maps
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted an incomplete supervise config", args)
		}
	}
}

func TestParseFlagsRejectsUnknownLimitsProfile(t *testing.T) {
	if _, err := parseFlags([]string{"-limits", "bogus"}); err == nil {
		t.Error("unknown limits profile accepted")
	}
}

func TestParseFlagsLoadsRegistry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	if err := os.WriteFile(path, []byte(`[{"kind":"ACC","name":"Person","den":"Person. Details"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-registry", path})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Registry == nil || cfg.server.Registry.Len() != 1 {
		t.Fatalf("registry not loaded: %+v", cfg.server.Registry)
	}
	if _, err := parseFlags([]string{"-registry", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing registry store accepted")
	}
}

// TestHTTPServerTimeouts serves through httpServer with a 200 ms
// -request-timeout. A client that declares a body and stalls after a
// few bytes is answered 408 within a second, while a handler that
// outlives the timeout on a reused keep-alive connection still answers
// 200 with an uncancelled context.
func TestHTTPServerTimeouts(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-request-timeout", "200ms"})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", server.New(cfg.server).Handler())
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * cfg.server.RequestTimeout)
		if err := r.Context().Err(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := cfg.httpServer(mux)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	t.Run("stalled body", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		fmt.Fprint(conn, "POST /v1/generate?library=EB005-HoardingPermit&root=HoardingPermit HTTP/1.1\r\n"+
			"Host: ccserved\r\nContent-Length: 1000\r\n\r\nhello")
		conn.SetReadDeadline(start.Add(5 * time.Second))
		res, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var body struct{ Code string }
		if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusRequestTimeout || body.Code != "timeout" {
			t.Errorf("stalled body: status %d code %q, want 408 timeout", res.StatusCode, body.Code)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("stalled body answered after %v, want within 1s", elapsed)
		}
	})

	t.Run("slow handler", func(t *testing.T) {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		client := &http.Client{Transport: tr}
		for _, path := range []string{"/healthz", "/slow"} {
			var reused bool
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
			})
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			msg, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, want 200: %s", path, res.StatusCode, msg)
			}
			if path == "/slow" && !reused {
				t.Error("/slow did not reuse the keep-alive connection")
			}
		}
	})
}
