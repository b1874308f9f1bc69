// Package server exposes the transformation pipeline over HTTP: the
// paper's batch generator (UML profile model in, NDR-compliant XSD out)
// becomes a resident service. Endpoints:
//
//	POST /v1/generate        XMI in; zipped or multipart schema set +
//	                         diagnostics out. Memoized through a
//	                         content-addressed schema cache.
//	POST /v1/validate        XMI in; validate.Report JSON out.
//	GET  /v1/registry/search query over a loaded registry store.
//	GET  /healthz            liveness + cache/admission snapshot.
//	GET  /metrics            Prometheus text exposition.
//
// Admission control reuses the robustness layer: request bodies run
// under internal/limits budgets, a bounded semaphore caps in-flight
// generations (saturation answers 503), every request's context is
// threaded into the import and the generate pipeline so client
// disconnects and the request timeout cancel real work, and panics are
// isolated into structured 500s. Model defects answer 400, validation
// errors 422.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/backends"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/health"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/registry"
	"github.com/go-ccts/ccts/internal/repl"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/schemacache"
	"github.com/go-ccts/ccts/internal/shard"
	"github.com/go-ccts/ccts/internal/validate"
)

// Config tunes a Server.
type Config struct {
	// MaxInFlight caps concurrently admitted generations/validations;
	// requests beyond it answer 503. Default: 2 * GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout bounds one request's work; 0 disables the bound.
	RequestTimeout time.Duration
	// Limits is the ingestion budget applied to request bodies and the
	// XML parsing behind them; the zero value means limits.Default()
	// (limits.Unlimited() disables the parse limits).
	Limits limits.Limits
	// CacheBytes is the schema cache budget. 0 means the 64 MiB
	// default; negative disables caching (singleflight still applies).
	CacheBytes int64
	// Registry, when non-nil, backs /v1/registry/search. Without it the
	// endpoint answers 404.
	Registry *registry.Guarded
	// Repo, when non-nil, backs the /v1/repo endpoint family (versioned
	// publishing with compatibility gating). Without it those endpoints
	// answer 404. The server instruments but does not own the
	// repository; the caller opens and closes it.
	Repo *repo.Repo
	// Metrics receives the server's instruments; nil creates a private
	// registry (exposed on /metrics either way).
	Metrics *metrics.Registry
	// MaxQueueWait is how long a request may queue for an admission slot
	// before being shed with 503. 0 keeps the historical behavior: a full
	// semaphore rejects immediately. Queue waits are additionally capped
	// by the request's remaining deadline budget — shedding now beats
	// timing out after queueing.
	MaxQueueWait time.Duration
	// RatePerClient, when > 0, enables per-client token-bucket rate
	// limiting over the /v1/ endpoints: each client (X-API-Key header,
	// else remote address) accrues this many requests per second up to
	// RateBurst; beyond that, requests answer 429 with Retry-After.
	RatePerClient float64
	// RateBurst is the token-bucket capacity; values < 1 default to
	// max(1, RatePerClient).
	RateBurst int
	// Health, when non-nil, is the degradation state machine published
	// in /healthz and consulted by the error mapping. The server
	// instruments it but does not own its probe loop.
	Health *health.Tracker
	// ReplSource, when non-nil, serves the /v1/repl wal/snapshot/blob
	// endpoints — the primary half of WAL-shipping replication. Mounted
	// on followers too, so replicas can chain and a promoted follower is
	// immediately a full primary.
	ReplSource *repl.Source
	// Follower, when non-nil, marks this instance a read replica: /v1/repo
	// writes answer 503 read_only with a Location hint to the primary
	// until the follower is promoted (POST /v1/repl/promote or
	// auto-promotion). The server instruments but does not own it; the
	// caller starts and stops its loops.
	Follower *repl.Follower
	// Jobs, when non-nil, backs the /v1/jobs endpoint family (async
	// batch generation with live SSE progress). The server installs the
	// generation pipeline as the manager's executor and instruments it;
	// the caller opens, starts and closes the manager.
	Jobs *jobs.Manager
	// Shard, when non-nil, makes this instance one primary of a
	// consistent-hash cluster: subject-scoped /v1/repo requests are
	// routed against the shard map (wrong-shard traffic answers 421
	// wrong_shard with the owner's address) and the /v1/shard endpoint
	// family (map exchange, migration pull, rebalance) is mounted.
	Shard *shard.Router
	// ShardProxy, with Shard set, proxies wrong-shard requests to their
	// owner transparently (hop-capped) instead of answering 421; it also
	// routes /v1/generate by content key for cache affinity.
	ShardProxy bool
	// ShardSupervise, with Shard set, runs a shard supervisor on this
	// node: peer primaries are probed with miss-count hysteresis, and a
	// confirmed-lost one is healed automatically — its designated
	// replica promoted (and a new map epoch installed cluster-wide), or
	// its subjects evacuated onto the survivors via the rebalance
	// protocol when it has no replica. The server builds the supervisor
	// (wiring its evacuation to the rebalance); the caller starts and
	// stops it via ShardSupervisor().
	ShardSupervise bool
	// ShardProbeInterval paces the supervisor's probes; 0 means 2s.
	ShardProbeInterval time.Duration
	// ShardFailMisses is the supervisor's miss-hysteresis threshold; 0
	// means 3 consecutive failed probes.
	ShardFailMisses int
	// ShardLogf receives supervisor progress lines; nil discards them.
	ShardLogf func(format string, args ...any)
}

// Server is the HTTP serving layer. Create with New; the zero value is
// not usable.
type Server struct {
	cfg      Config
	lim      limits.Limits
	cache    *schemacache.Cache
	reg      *registry.Guarded
	repo     *repo.Repo
	mx       *metrics.Registry
	sem      chan struct{}
	mux      *http.ServeMux
	health   *health.Tracker
	limiter  *rateLimiter
	replSrc  *repl.Source
	follower *repl.Follower
	jobs     *jobs.Manager
	shard    *shard.Router
	shardSup *shard.Supervisor
	draining atomic.Bool
	// drainCh closes when BeginDrain runs so long-lived streams (job
	// SSE watchers) end promptly instead of holding the shutdown grace
	// period open.
	drainCh   chan struct{}
	drainOnce sync.Once

	requests    *metrics.Counter
	saturated   *metrics.Counter
	shed        *metrics.Counter
	ratelimited *metrics.Counter
	panics      *metrics.Counter
	errors4xx   *metrics.Counter
	errors5xx   *metrics.Counter
	inflight    *metrics.Gauge

	// Per-target generation counters, pre-registered for every backend
	// so the request path never formats metric names or takes the
	// registry's registration lock.
	genRequests map[string]*metrics.Counter                            // target -> requests
	genOutcomes map[string][schemacache.Coalesced + 1]*metrics.Counter // target -> outcome-indexed counters
}

// New builds a Server from cfg, applying the documented defaults.
func New(cfg Config) *Server {
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	}
	mx := cfg.Metrics
	if mx == nil {
		mx = metrics.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		lim:      cfg.Limits.OrDefault(),
		cache:    schemacache.New(cacheBytes),
		reg:      cfg.Registry,
		repo:     cfg.Repo,
		mx:       mx,
		sem:      make(chan struct{}, maxInFlight),
		mux:      http.NewServeMux(),
		health:   cfg.Health,
		limiter:  newRateLimiter(cfg.RatePerClient, cfg.RateBurst),
		replSrc:  cfg.ReplSource,
		follower: cfg.Follower,
		jobs:     cfg.Jobs,
		shard:    cfg.Shard,
		drainCh:  make(chan struct{}),

		requests:    mx.Counter("ccserved_requests_total", "HTTP requests received."),
		saturated:   mx.Counter("ccserved_saturated_total", "Requests rejected with 503 because the admission semaphore was full."),
		shed:        mx.Counter("ccserved_shed_total", "Requests shed with 503 after queueing for an admission slot."),
		ratelimited: mx.Counter("ccserved_ratelimited_total", "Requests rejected with 429 by the per-client rate limiter."),
		panics:      mx.Counter("ccserved_panics_total", "Request handlers recovered from a panic."),
		errors4xx:   mx.Counter("ccserved_errors_4xx_total", "Responses with a 4xx status."),
		errors5xx:   mx.Counter("ccserved_errors_5xx_total", "Responses with a 5xx status."),
		inflight:    mx.Gauge("ccserved_inflight", "Requests currently holding an admission slot."),
	}
	s.genRequests = make(map[string]*metrics.Counter)
	s.genOutcomes = make(map[string][schemacache.Coalesced + 1]*metrics.Counter)
	for _, target := range backends.Targets() {
		s.genRequests[target] = mx.Counter(
			fmt.Sprintf("gen_%s_requests_total", target),
			fmt.Sprintf("Generation requests for the %s target.", target))
		var byOutcome [schemacache.Coalesced + 1]*metrics.Counter
		for _, o := range []schemacache.Outcome{schemacache.Miss, schemacache.Hit, schemacache.Coalesced} {
			byOutcome[o] = mx.Counter(
				fmt.Sprintf("gen_%s_cache_%s_total", target, o),
				fmt.Sprintf("Generation cache outcomes (%s) for the %s target.", o, target))
		}
		s.genOutcomes[target] = byOutcome
	}
	s.cache.Instrument(mx)
	if s.repo != nil {
		s.repo.Instrument(mx)
	}
	if s.health != nil {
		s.health.Instrument(mx)
	}
	if s.follower != nil {
		s.follower.Instrument(mx)
	}
	if s.jobs != nil {
		s.jobs.Instrument(mx)
		s.jobs.SetExecutor(s.executeJobItem)
	}
	if s.shard != nil {
		s.shard.Instrument(mx)
		s.syncShardOwned()
		if cfg.ShardSupervise {
			s.shardSup = shard.NewSupervisor(s.shard, shard.SupervisorOptions{
				ProbeInterval: cfg.ShardProbeInterval,
				FailMisses:    cfg.ShardFailMisses,
				Logf:          cfg.ShardLogf,
				Evacuate:      s.evacuateShard,
			})
			s.shardSup.Instrument(mx)
		}
	}
	s.mux.HandleFunc("/v1/generate", s.handleGenerate)
	s.mux.HandleFunc("/v1/validate", s.handleValidate)
	s.mux.HandleFunc("/v1/registry/search", s.handleRegistrySearch)
	s.mux.HandleFunc("GET /v1/repo", s.handleRepoAggregate)
	s.mux.HandleFunc("GET /v1/repo/subjects", s.handleRepoSubjects)
	s.mux.HandleFunc("POST /v1/repo/subjects/{subject}/versions", s.handleRepoPublish)
	s.mux.HandleFunc("GET /v1/repo/subjects/{subject}/versions", s.handleRepoVersions)
	s.mux.HandleFunc("GET /v1/repo/subjects/{subject}/versions/{number}", s.handleRepoVersion)
	s.mux.HandleFunc("DELETE /v1/repo/subjects/{subject}/versions/{number}", s.handleRepoDelete)
	s.mux.HandleFunc("GET /v1/repo/subjects/{subject}/compat", s.handleRepoCompat)
	s.mux.HandleFunc("POST /v1/repo/subjects/{subject}/compat", s.handleRepoCompat)
	s.mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /v1/repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /v1/repl/blob/{sha}", s.handleReplBlob)
	s.mux.HandleFunc("POST /v1/repl/promote", s.handleReplPromote)
	s.mux.HandleFunc("GET /v1/shard/map", s.handleShardMapGet)
	s.mux.HandleFunc("PUT /v1/shard/map", s.handleShardMapPut)
	s.mux.HandleFunc("POST /v1/shard/pull", s.handleShardPull)
	s.mux.HandleFunc("POST /v1/shard/rebalance", s.handleShardRebalance)
	s.mux.HandleFunc("POST /v1/shard/heal", s.handleShardHeal)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler: the route mux wrapped in
// request accounting and panic isolation.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				s.writeError(w, &apiError{
					Status:  http.StatusInternalServerError,
					Code:    "panic",
					Message: fmt.Sprintf("internal error: %v", rec),
				})
				// The stack goes to stderr, not to the client.
				fmt.Fprintf(debugWriter, "ccserved: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			}
		}()
		if s.limiter != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
			if ok, wait := s.limiter.allow(clientKey(r)); !ok {
				s.ratelimited.Inc()
				s.writeError(w, &apiError{
					Status:     http.StatusTooManyRequests,
					Code:       "rate_limited",
					Message:    "client request rate exceeds the configured budget; retry after the indicated delay",
					RetryAfter: wait,
				})
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.mx }

// Cache returns the schema cache (for stats and tests).
func (s *Server) Cache() *schemacache.Cache { return s.cache }

// ShardSupervisor returns the shard supervisor built for
// Config.ShardSupervise, or nil. The caller owns its probe loop:
// Start() after the listener is up, Stop() before shutdown.
func (s *Server) ShardSupervisor() *shard.Supervisor { return s.shardSup }

// debugWriter receives panic stacks; a variable so tests can silence it.
var debugWriter io.Writer = os.Stderr

// requestContext derives the per-request work context: the client's
// context bounded by the tightest of the configured request timeout and
// the deadline the client propagated via the X-Request-Timeout (a Go
// duration) or X-Request-Deadline (RFC 3339) header. A malformed header
// is the client's defect and answers 400.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, *apiError) {
	now := time.Now()
	var deadline time.Time
	tighten := func(cand time.Time) {
		if deadline.IsZero() || cand.Before(deadline) {
			deadline = cand
		}
	}
	if s.cfg.RequestTimeout > 0 {
		tighten(now.Add(s.cfg.RequestTimeout))
	}
	if h := r.Header.Get("X-Request-Timeout"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return nil, nil, &apiError{Status: http.StatusBadRequest, Code: "deadline", Message: fmt.Sprintf("X-Request-Timeout must be a positive Go duration, got %q", h)}
		}
		tighten(now.Add(d))
	}
	if h := r.Header.Get("X-Request-Deadline"); h != "" {
		t, err := time.Parse(time.RFC3339, h)
		if err != nil {
			return nil, nil, &apiError{Status: http.StatusBadRequest, Code: "deadline", Message: fmt.Sprintf("X-Request-Deadline must be an RFC 3339 timestamp, got %q", h)}
		}
		tighten(t)
	}
	if deadline.IsZero() {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	return ctx, cancel, nil
}

// admit claims an admission slot. With MaxQueueWait configured, a
// request may queue up to min(MaxQueueWait, its remaining deadline
// budget) for a slot and is shed with errShed when the wait expires —
// a fast, honest 503 instead of a late 504. MaxQueueWait zero keeps
// the historical semantics: a full semaphore answers errSaturated
// immediately. release undoes a successful admit.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Inc()
		return nil
	default:
	}
	wait := s.cfg.MaxQueueWait
	if wait <= 0 {
		s.saturated.Inc()
		return errSaturated
	}
	if dl, ok := ctx.Deadline(); ok {
		if budget := time.Until(dl); budget < wait {
			wait = budget
		}
	}
	if wait <= 0 {
		s.shed.Inc()
		return errShed
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		s.inflight.Inc()
		return nil
	case <-timer.C:
		s.shed.Inc()
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.inflight.Dec()
	<-s.sem
}

// BeginDrain marks the server as draining: /healthz starts answering
// 503 so load balancers stop routing new work, while in-flight and
// late-arriving requests still complete during the shutdown grace
// period. Long-lived job event streams are ended so the HTTP server's
// graceful shutdown is not held open by watchers; clients reconnect to
// the restarted instance with their Last-Event-ID.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// errSaturated marks a rejected admission; mapped to 503.
var errSaturated = errors.New("server: admission semaphore saturated")

// errShed marks a request shed after queueing for admission; mapped to
// 503 with Retry-After.
var errShed = errors.New("server: request shed after queueing for admission")

// apiError is a failure as every failure path answers it: the
// api.Error envelope plus the HTTP status and headers.
type apiError struct {
	Status  int
	Code    string
	Message string
	Report  *validate.Report
	// RetryAfter, when > 0, is the client back-off hint for 503/429
	// responses; zero falls back to 1s on those statuses.
	RetryAfter time.Duration
	// Primary, when non-empty, names the writable primary a rejected
	// write should go to (replica 503 read_only); rendered as both a
	// Location header and a "primary" envelope field.
	Primary string
	// Owner, when non-empty, names the shard primary owning the subject
	// (421 wrong_shard); rendered as both a Location header and an
	// "owner" envelope field, with Epoch carrying the map epoch the
	// decision was made under so clients can refresh stale caches.
	Owner string
	Epoch int64
}

func (e *apiError) Error() string { return e.Message }

// writeError renders an apiError and updates the error counters.
func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	if e.Status >= 500 {
		s.errors5xx.Inc()
	} else if e.Status >= 400 {
		s.errors4xx.Inc()
	}
	body := api.Error{Message: e.Message, Code: e.Code, Primary: e.Primary, Owner: e.Owner, Epoch: e.Epoch}
	if e.Report != nil {
		body.Findings = e.Report.Findings
	}
	w.Header().Set("Content-Type", "application/json")
	if e.Primary != "" {
		w.Header().Set("Location", e.Primary)
	}
	if e.Owner != "" {
		w.Header().Set("Location", e.Owner)
	}
	if e.Status == http.StatusServiceUnavailable || e.Status == http.StatusTooManyRequests {
		secs := int(e.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(body)
}

// mapError converts a pipeline failure into the documented status
// mapping: 503 for saturation, queue-wait shedding, read-only mode and
// storage faults (each with its own machine-readable code and a
// Retry-After), 504 for a request-budget timeout, 400 for model/input
// defects (including limit violations, which are a property of the
// submitted document), 500 for isolated panics.
func mapError(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, errSaturated):
		return &apiError{Status: http.StatusServiceUnavailable, Code: "saturated", Message: "server is at its in-flight generation limit; retry"}
	case errors.Is(err, errShed):
		return &apiError{Status: http.StatusServiceUnavailable, Code: "shed", Message: "request shed: no admission slot freed within the queue-wait budget; retry"}
	case errors.Is(err, health.ErrReadOnly):
		return &apiError{Status: http.StatusServiceUnavailable, Code: "read_only", Message: err.Error(), RetryAfter: 5 * time.Second}
	case health.IsDiskFault(err):
		return &apiError{Status: http.StatusServiceUnavailable, Code: "storage", Message: err.Error(), RetryAfter: 5 * time.Second}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Code: "timeout", Message: "request exceeded the server's time budget"}
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but keep the map total.
		return &apiError{Status: 499, Code: "canceled", Message: "request canceled"}
	case errors.Is(err, limits.ErrLimit), errors.Is(err, limits.ErrDTD):
		return &apiError{Status: http.StatusBadRequest, Code: "limit", Message: err.Error()}
	default:
		var opErr *gen.OpError
		if errors.As(err, &opErr) {
			return &apiError{Status: http.StatusInternalServerError, Code: "panic", Message: err.Error()}
		}
		return &apiError{Status: http.StatusBadRequest, Code: "model", Message: err.Error()}
	}
}

// readBody reads the request body under the configured byte budget.
// Exceeding it answers 413 (the HTTP-native form of MaxInputBytes): a
// declared Content-Length over the budget before any byte is read, a
// body of unknown length once it passes the budget. A positive declared
// length within the budget is read by readDeclared; a body that ends
// short of it answers 400, and one still unread when the connection's
// read deadline passes (ccserved sets it from -request-timeout) answers
// 408.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	max := s.lim.MaxInputBytes
	if max <= 0 {
		max = 64 << 20
	}
	if r.ContentLength > max {
		return nil, bodyTooLarge(max)
	}
	var body []byte
	var err error
	if r.ContentLength > 0 {
		body, err = readDeclared(r.Body, r.ContentLength)
	} else {
		// Unknown length, or 0, which a request built for a client
		// rather than read by the server may also use for "unknown".
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, bodyTooLarge(max)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, &apiError{Status: http.StatusRequestTimeout, Code: "timeout", Message: "request body not received within the server's read timeout"}
		}
		return nil, &apiError{Status: http.StatusBadRequest, Code: "body", Message: err.Error()}
	}
	return body, nil
}

// readChunk is the most readDeclared allocates ahead of the bytes it
// reads.
const readChunk = 1 << 20

// readDeclared reads a body that declares n bytes. A body of up to
// readChunk bytes is read into one buffer of exactly n bytes. A longer
// one starts at readChunk and doubles, up to n, each time the buffer
// fills, so a client that declares a large body and then stalls holds
// at most twice what it has sent, plus readChunk.
func readDeclared(r io.Reader, n int64) ([]byte, error) {
	body := make([]byte, min(n, readChunk))
	read := 0
	for {
		m, err := io.ReadFull(r, body[read:])
		read += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if int64(read) == n {
			return body, nil
		}
		grown := make([]byte, min(n, 2*int64(read)))
		copy(grown, body)
		body = grown
	}
}

func bodyTooLarge(max int64) *apiError {
	return &apiError{
		Status:  http.StatusRequestEntityTooLarge,
		Code:    "limit",
		Message: fmt.Sprintf("request body exceeds %d bytes", max),
	}
}

// handleHealthz answers a liveness snapshot on GET and HEAD. While the
// server drains toward shutdown it answers 503 so load balancers stop
// routing new work; a degraded or read-only health state is reported in
// the body (status + health section) but stays 200 — reads still serve,
// and pulling the instance would turn a partial outage into a full one.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: "method", Message: "use GET or HEAD"})
		return
	}
	status, code := "ok", http.StatusOK
	if s.health != nil {
		if st := s.health.State(); st != health.Healthy {
			status = st.String()
		}
	}
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
		// Every 503 carries a back-off hint; draining instances are
		// typically replaced within moments.
		w.Header().Set("Retry-After", "1")
	}
	if r.Method == http.MethodHead {
		if code != http.StatusOK {
			s.errors5xx.Inc()
		}
		w.WriteHeader(code)
		return
	}
	st := s.cache.Stats()
	doc := map[string]any{
		"status":   status,
		"inflight": s.inflight.Value(),
		"capacity": cap(s.sem),
		"cache": map[string]any{
			"hits": st.Hits, "misses": st.Misses, "coalesced": st.Coalesced,
			"evictions": st.Evictions, "entries": st.Entries, "bytes": st.Bytes,
		},
	}
	if s.health != nil {
		doc["health"] = map[string]any{
			"state":  s.health.State().String(),
			"reason": s.health.Reason(),
		}
	}
	if s.repo != nil {
		rs := s.repo.Stats()
		doc["repo"] = map[string]any{
			"subjects": rs.Subjects, "versions": rs.Versions, "deleted": rs.Deleted,
			"blobs": rs.Blobs, "blobBytes": rs.BlobBytes, "logicalBytes": rs.LogicalBytes,
			"dedupRatio": rs.DedupRatio(),
			"publishes":  rs.Publishes, "rejections": rs.Rejections, "deletes": rs.Deletes,
			"walSeq": s.repo.WALSeq(),
		}
	}
	if s.follower != nil {
		fst := s.follower.Status()
		role := "replica"
		if fst.Promoted {
			role = "primary"
		}
		doc["repl"] = map[string]any{
			"role": role, "primary": fst.Primary, "promoted": fst.Promoted,
			"appliedSeq": fst.AppliedSeq, "primarySeq": fst.PrimarySeq,
			"lagSeconds": fst.LagSeconds, "resyncs": fst.Resyncs,
			"upstream": fst.Upstream,
		}
	} else if s.replSrc != nil {
		doc["repl"] = map[string]any{"role": "primary"}
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		doc["jobs"] = map[string]any{
			"jobs": js.Jobs, "running": js.Running,
			"queueDepth": js.QueueDepth, "workers": js.Workers,
		}
	}
	if s.shard != nil {
		m := s.shard.Map()
		sh := map[string]any{
			"self": s.shard.Self(), "epoch": m.Epoch,
			"shards": len(m.Shards), "migrations": len(m.Migrations),
			"proxy": s.cfg.ShardProxy,
		}
		if s.shardSup != nil {
			sst := s.shardSup.Status()
			sh["supervisor"] = map[string]any{
				"probeInterval": sst.ProbeInterval.String(),
				"failMisses":    sst.FailMisses,
				"suspects":      sst.Suspects,
				"deadNodes":     sst.DeadNodes,
				"failovers":     sst.Failovers,
				"evacuations":   sst.Evacuations,
			}
		}
		doc["shard"] = sh
	}
	if code != http.StatusOK {
		s.errors5xx.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(doc)
}

// handleMetrics renders the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: "method", Message: "use GET"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mx.WritePrometheus(w)
}

// handleRegistrySearch answers /v1/registry/search?q=...&context=...
func (s *Server) handleRegistrySearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: "method", Message: "use GET"})
		return
	}
	if s.reg == nil {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: "registry", Message: "no registry store loaded"})
		return
	}
	q := r.URL.Query().Get("q")
	var entries []registry.Entry
	if ctxExpr := r.URL.Query().Get("context"); ctxExpr != "" {
		situation, err := ccts.ParseContext(ctxExpr)
		if err != nil {
			s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "context", Message: err.Error()})
			return
		}
		entries = s.reg.SearchInContext(q, situation)
	} else {
		entries = s.reg.Search(q)
	}
	if entries == nil {
		entries = []registry.Entry{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(entries)
}
