// Command ccserved serves the transformation pipeline over HTTP: the
// paper's batch generator dialog becomes a resident service with a
// content-addressed schema cache, admission control and metrics.
//
// Endpoints: POST /v1/generate, POST /v1/validate,
// GET /v1/registry/search, the /v1/repo family (when -repo is set),
// the /v1/jobs family (when -job-dir is set: async batch generation
// with SSE progress, durable across restarts), the /v1/shard family
// (when -shard-map is set: consistent-hash clustering with 421
// wrong_shard routing and live rebalance), GET|HEAD /healthz,
// GET /metrics.
//
// /v1/generate accepts target=xsd|jsonschema|proto|rng|rdfs|go to pick
// the generation backend and profile=<JSON> for per-run overrides
// (datatype mappings, namespace rewrites, import locations, root
// preselection); each (model, target, profile) combination is its own
// cache entry, and responses carry the backend's Content-Type.
//
// -request-timeout bounds each request's work and the time its client
// has to send the headers and body; a body still unread at that
// deadline answers 408.
//
// Overload and degradation control: requests queue up to
// -max-queue-wait for an admission slot before a 503 shed, -rate
// enables per-client token-bucket limiting (429 + Retry-After), and
// with -repo set a health state machine watches the repository volume —
// disk faults flip publishes to 503 read-only while reads keep serving,
// and a background probe (-probe-interval) restores write mode.
//
// SIGINT/SIGTERM drain the server gracefully: /healthz flips to 503 so
// load balancers stop routing, the listener stops accepting, in-flight
// requests get -drain-timeout to finish (their generation contexts are
// cancelled when it expires), then the process exits. -h/-help print
// usage and exit 0.
//
// Usage:
//
//	ccserved -addr :8080 -max-inflight 16 -request-timeout 30s \
//	         -cache-bytes 67108864 -limits default -registry registry.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/health"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/registry"
	"github.com/go-ccts/ccts/internal/repl"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/server"
	"github.com/go-ccts/ccts/internal/shard"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set, separated from serving so tests can
// exercise flag handling without binding a socket.
type config struct {
	addr         string
	server       server.Config
	drainTimeout time.Duration
	// repoDir enables the /v1/repo endpoints; the repository is opened in
	// run (not parseFlags) so flag parsing stays free of side effects.
	repoDir    string
	repoPolicy repo.Policy
	// probeInterval paces the health tracker's background disk probe
	// (only started when a repository is configured).
	probeInterval time.Duration
	// replicaOf, when set, runs this instance as a read replica of the
	// primary at that URL: it bootstraps from the primary's snapshot,
	// tails its WAL stream, and serves /v1/repo reads byte-identically
	// while writes answer 503 read_only with a hint to the primary.
	replicaOf string
	// autoPromote flips a replica into a writable primary after
	// promoteMisses consecutive failed probes of the primary.
	autoPromote   bool
	promoteMisses int
	// jobDir enables the /v1/jobs endpoints: the durable job queue's
	// WAL, checkpoint and blobs live there and survive restarts.
	jobDir       string
	jobWorkers   int
	jobRetention time.Duration
	// shardMap and shardSelf make this instance one primary of a
	// consistent-hash shard cluster: the map file carries the versioned
	// topology, shardSelf names this node's shard ID within it.
	shardMap   string
	shardSelf  string
	shardProxy bool
	// shardSupervise starts the shard supervisor: every node probing its
	// peers and healing confirmed failures (replica promotion or
	// evacuation onto the survivors).
	shardSupervise bool
	// shardReplicaMap runs this replica shard-aware: it mounts the
	// router from the map file so its shard's reads serve locally while
	// writes answer the primary hint — and after a supervisor promotes
	// it, it is a full primary without a restart.
	shardReplicaMap string
}

// parseFlags maps the command line onto a server configuration.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("ccserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		maxInflight  = fs.Int("max-inflight", 0, "max concurrently admitted generations; 0 = 2*GOMAXPROCS; excess requests get 503")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request work budget, and the time a client has to send a request's headers and body (0 disables both)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "schema cache budget in bytes (negative disables caching)")
		limitsProf   = fs.String("limits", "default", "ingestion limits profile: default or unlimited")
		registryPath = fs.String("registry", "", "registry store (JSON) backing /v1/registry/search")
		repoDir      = fs.String("repo", "", "schema repository directory backing /v1/repo (empty disables)")
		repoPolicy   = fs.String("repo-policy", "backward", "default compatibility policy for new subjects: none or backward")
		maxQueueWait = fs.Duration("max-queue-wait", 500*time.Millisecond, "how long a request may queue for an admission slot before a 503 shed (0 = reject immediately)")
		rate         = fs.Float64("rate", 0, "per-client request rate over /v1/ in requests/second (0 disables rate limiting)")
		rateBurst    = fs.Int("rate-burst", 0, "per-client token-bucket burst; 0 = max(1, -rate)")
		probeEvery   = fs.Duration("probe-interval", 2*time.Second, "background disk-probe interval for the health state machine (requires -repo)")
		replicaOf    = fs.String("replica-of", "", "run as a read replica of the primary ccserved at this URL (requires -repo)")
		autoPromote  = fs.Bool("auto-promote", false, "promote this replica to a writable primary when its probe of the primary trips (requires -replica-of)")
		promoteMiss  = fs.Int("promote-misses", 3, "consecutive failed primary probes before auto-promotion arms")
		jobDir       = fs.String("job-dir", "", "async job queue directory backing /v1/jobs (empty disables; jobs survive restarts)")
		jobWorkers   = fs.Int("job-workers", 2, "worker pool size draining the job queue (requires -job-dir)")
		jobRetention = fs.Duration("job-retention", 24*time.Hour, "how long finished jobs and their results are kept (0 = forever; requires -job-dir)")
		shardMap     = fs.String("shard-map", "", "shard-map file making this instance one primary of a consistent-hash cluster (requires -repo and -shard-self)")
		shardSelf    = fs.String("shard-self", "", "this node's shard ID within the -shard-map topology")
		shardProxy   = fs.Bool("shard-proxy", false, "proxy wrong-shard requests to their owner instead of answering 421 (requires -shard-map)")
		shardSuperv  = fs.Bool("shard-supervise", false, "probe peer shards and heal confirmed failures: promote the replica or evacuate onto survivors (requires -shard-map; paced by -probe-interval, armed by -promote-misses)")
		shardRepMap  = fs.String("shard-replica-of-map", "", "shard-map file making this replica shard-aware and promotable in place (requires -replica-of and -shard-self; mutually exclusive with -shard-map)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	cfg := &config{addr: *addr, drainTimeout: *drainTimeout, probeInterval: *probeEvery}
	cfg.server = server.Config{
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		CacheBytes:     *cacheBytes,
		MaxQueueWait:   *maxQueueWait,
		RatePerClient:  *rate,
		RateBurst:      *rateBurst,
	}
	switch *limitsProf {
	case "default":
		cfg.server.Limits = limits.Default()
	case "unlimited":
		cfg.server.Limits = limits.Unlimited()
	default:
		return nil, fmt.Errorf("unknown -limits profile %q (want default or unlimited)", *limitsProf)
	}
	if *registryPath != "" {
		reg, err := loadRegistry(*registryPath)
		if err != nil {
			return nil, err
		}
		cfg.server.Registry = reg
	}
	cfg.repoDir = *repoDir
	policy, err := repo.ParsePolicy(*repoPolicy)
	if err != nil {
		return nil, err
	}
	cfg.repoPolicy = policy
	cfg.replicaOf = *replicaOf
	cfg.autoPromote = *autoPromote
	cfg.promoteMisses = *promoteMiss
	if cfg.replicaOf != "" && cfg.repoDir == "" {
		return nil, fmt.Errorf("-replica-of requires -repo (the replica's local repository directory)")
	}
	if cfg.autoPromote && cfg.replicaOf == "" {
		return nil, fmt.Errorf("-auto-promote requires -replica-of")
	}
	cfg.jobDir = *jobDir
	cfg.jobWorkers = *jobWorkers
	cfg.jobRetention = *jobRetention
	if cfg.jobDir == "" && (*jobWorkers != 2 || *jobRetention != 24*time.Hour) {
		return nil, fmt.Errorf("-job-workers and -job-retention require -job-dir")
	}
	cfg.shardMap = *shardMap
	cfg.shardSelf = *shardSelf
	cfg.shardProxy = *shardProxy
	cfg.shardSupervise = *shardSuperv
	cfg.shardReplicaMap = *shardRepMap
	if cfg.shardReplicaMap != "" {
		if cfg.shardMap != "" {
			return nil, fmt.Errorf("-shard-replica-of-map and -shard-map are mutually exclusive (a node is a primary or a standby, not both)")
		}
		if cfg.replicaOf == "" {
			return nil, fmt.Errorf("-shard-replica-of-map requires -replica-of (the shard primary this standby follows)")
		}
		if cfg.shardSelf == "" {
			return nil, fmt.Errorf("-shard-replica-of-map requires -shard-self (the shard this standby replicates)")
		}
	}
	if cfg.shardMap != "" {
		if cfg.repoDir == "" {
			return nil, fmt.Errorf("-shard-map requires -repo (each shard primary stores its subjects locally)")
		}
		if cfg.shardSelf == "" {
			return nil, fmt.Errorf("-shard-map requires -shard-self (this node's shard ID in the map)")
		}
	} else if cfg.shardReplicaMap == "" && (cfg.shardSelf != "" || cfg.shardProxy) {
		return nil, fmt.Errorf("-shard-self and -shard-proxy require -shard-map")
	}
	if cfg.shardSupervise && cfg.shardMap == "" && cfg.shardReplicaMap == "" {
		return nil, fmt.Errorf("-shard-supervise requires -shard-map or -shard-replica-of-map")
	}
	return cfg, nil
}

// repoConfig is the configuration run opens -repo with: the
// compatibility gate imports stored inputs under the same limits as the
// request path, so an input the server accepted stays importable.
func (c *config) repoConfig(tracker *health.Tracker) repo.Config {
	return repo.Config{DefaultPolicy: c.repoPolicy, Limits: c.server.Limits, Health: tracker}
}

// httpServer builds the listener-side server. -request-timeout also
// bounds how long a client may take to send a request's headers and
// body: the read happens before the handler derives its work budget,
// so without a read deadline a client that stalls mid-body would hold
// a handler for as long as it stays connected. Once the body is read,
// net/http lifts the deadline, so handlers that outlive it (job event
// streams, replication long polls) keep their connection; with
// IdleTimeout unset, idle keep-alive connections close after the same
// duration.
func (c *config) httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Addr:              c.addr,
		Handler:           h,
		ReadHeaderTimeout: c.server.RequestTimeout,
		ReadTimeout:       c.server.RequestTimeout,
	}
}

// loadRegistry reads a registry store saved by ccregistry.
func loadRegistry(path string) (*registry.Guarded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening registry store: %w", err)
	}
	defer f.Close()
	store := ccts.NewRegistry()
	if err := store.LoadJSON(f); err != nil {
		return nil, fmt.Errorf("loading registry store %s: %w", path, err)
	}
	return registry.NewGuarded(store), nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	// The repository outlives any single request; the process owns it and
	// closes it (checkpointing the WAL) after the drain completes. The
	// health tracker watches the repository's volume: write faults flip
	// publishes to 503 while reads keep serving, and the background probe
	// restores write mode once the disk recovers.
	if cfg.repoDir != "" {
		tracker := health.NewTracker(health.Options{})
		rp, err := repo.Open(cfg.repoDir, cfg.repoConfig(tracker))
		if err != nil {
			return fmt.Errorf("opening schema repository: %w", err)
		}
		defer rp.Close()
		cfg.server.Repo = rp
		cfg.server.Health = tracker
		if cfg.probeInterval > 0 {
			stopProbe := tracker.Start(cfg.probeInterval, health.DirProbe(cfg.repoDir))
			defer stopProbe()
		}
		// Every repository-backed instance serves the replication stream
		// — followers included, so replicas can chain and a promoted
		// follower is immediately a full primary for the others.
		cfg.server.ReplSource = repl.NewSource(rp, repl.SourceOptions{})
		if cfg.replicaOf != "" {
			follower := repl.NewFollower(rp, cfg.replicaOf, repl.FollowerOptions{
				AutoPromote:   cfg.autoPromote,
				PromoteMisses: cfg.promoteMisses,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "ccserved: "+format+"\n", args...)
				},
			})
			follower.Start()
			defer follower.Stop()
			cfg.server.Follower = follower
		}
	}

	// The shard router loads the versioned map before serving: a node
	// that cannot know the topology must not guess it. A standby replica
	// (-shard-replica-of-map) mounts the same router — its shard's reads
	// serve locally, writes answer the primary hint, and a promotion
	// makes it a full primary in place.
	mapPath := cfg.shardMap
	if mapPath == "" {
		mapPath = cfg.shardReplicaMap
	}
	if mapPath != "" {
		router, err := shard.OpenRouter(mapPath, cfg.shardSelf)
		if err != nil {
			return fmt.Errorf("opening shard map: %w", err)
		}
		cfg.server.Shard = router
		cfg.server.ShardProxy = cfg.shardProxy
		if cfg.shardSupervise {
			cfg.server.ShardSupervise = true
			cfg.server.ShardProbeInterval = cfg.probeInterval
			cfg.server.ShardFailMisses = cfg.promoteMisses
			cfg.server.ShardLogf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ccserved: "+format+"\n", args...)
			}
		}
	}

	// The job queue is durable: it recovers interrupted jobs before
	// serving starts, and its Close (after the HTTP drain) checkpoints
	// the WAL so the next start replays nothing. Workers start only
	// after server.New has installed the generation executor.
	var jobMgr *jobs.Manager
	if cfg.jobDir != "" {
		jobMgr, err = jobs.Open(cfg.jobDir, jobs.Config{
			Workers:   cfg.jobWorkers,
			Retention: cfg.jobRetention,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ccserved: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("opening job queue: %w", err)
		}
		cfg.server.Jobs = jobMgr
	}

	srv := server.New(cfg.server)
	if sup := srv.ShardSupervisor(); sup != nil {
		sup.Start()
		defer sup.Stop()
	}
	if jobMgr != nil {
		jobMgr.Start()
		defer func() {
			closeCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
			defer cancel()
			if err := jobMgr.Close(closeCtx); err != nil {
				fmt.Fprintln(os.Stderr, "ccserved: job queue close:", err)
			}
		}()
	}
	httpSrv := cfg.httpServer(srv.Handler())

	// Graceful drain: the first SIGINT/SIGTERM stops the listener and
	// gives in-flight requests the drain budget; Shutdown's context
	// expiry then hard-closes what is left.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ccserved: listening on %s\n", cfg.addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip /healthz to 503 first so load balancers stop routing here,
	// then stop the listener and drain in-flight work.
	srv.BeginDrain()
	fmt.Fprintln(os.Stderr, "ccserved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
