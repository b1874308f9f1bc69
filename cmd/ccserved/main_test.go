package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/repo"
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
		"-parallel", "4",
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
	if cfg.server.Parallelism != 4 || cfg.server.MaxInFlight != 7 {
		t.Errorf("parallelism/inflight = %d/%d, want 4/7", cfg.server.Parallelism, cfg.server.MaxInFlight)
	}
	if cfg.server.RequestTimeout != 5*time.Second {
		t.Errorf("request timeout = %v", cfg.server.RequestTimeout)
	}
	if cfg.server.CacheBytes != 1024 {
		t.Errorf("cache bytes = %d", cfg.server.CacheBytes)
	}
	if cfg.server.Limits.MaxDepth != 0 {
		t.Errorf("limits profile not unlimited: %+v", cfg.server.Limits)
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
