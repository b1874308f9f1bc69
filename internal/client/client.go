// Package client is the disciplined HTTP client for a ccserved
// instance: the other half of the server's overload-control contract.
// Every call runs under internal/retry — exponential backoff with full
// jitter, the server's Retry-After honored as a floor — and classifies
// responses so only transient failures burn retry budget:
//
//   - 429 and 5xx answers are transient and retried;
//   - connection-level failures (refused, DNS, reset) are transient but
//     surface as *ConnectError so callers can distinguish "server gone"
//     from "server said no" (ccrepo exits 3 on the former);
//   - every other non-2xx answer is permanent: retrying a 400 or 409
//     cannot change the outcome.
//
// The caller's context deadline is propagated to the server via the
// X-Request-Timeout header, so the server sheds work the client would
// no longer wait for. Answers decode into the server's own
// declarations in internal/api.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/retry"
	"github.com/go-ccts/ccts/internal/shard"
	"github.com/go-ccts/ccts/internal/validate"
)

// APIError is a structured non-2xx answer from the server.
type APIError struct {
	Status  int
	Code    string // machine-readable code from the error envelope
	Message string
	Body    []byte // raw response body (for codes the client does not model)
	// Primary, on a 503 read_only from a read replica, names the
	// writable primary the write should go to (from the envelope's
	// "primary" field or the Location header).
	Primary string
	// Owner, on a 421 wrong_shard, names the shard primary owning the
	// subject; Epoch is the shard-map epoch the refusing node decided
	// under, so the client knows when its cached map is stale.
	Owner string
	Epoch int64

	retryAfter time.Duration
	// findings are the envelope's validation findings (a 422's reasons).
	findings []validate.Finding
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("server answered %d", e.Status)
	}
	msg := fmt.Sprintf("server answered %d (%s): %s", e.Status, e.Code, e.Message)
	for _, f := range e.findings {
		msg += "\n" + f.String()
	}
	return msg
}

// RetryAfter exposes the server's Retry-After hint; internal/retry uses
// it as the floor for the next backoff delay.
func (e *APIError) RetryAfter() time.Duration { return e.retryAfter }

// retryable reports whether repeating the request can succeed: server
// overload and transient fault statuses, never client-side defects.
func (e *APIError) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// ErrRoutingLoop reports ownership hints that chased each other past
// the hop budget: two nodes with disagreeing shard maps (or replica
// primaries pointing at each other) would bounce the request forever,
// so the client stops and surfaces the loop instead.
var ErrRoutingLoop = errors.New("client: ownership hints form a loop or exceed the hop budget")

// maxOwnerHops bounds how many ownership hints (421 wrong_shard owner,
// 503 read_only primary) one call will follow.
const maxOwnerHops = 3

// ConnectError marks a transport-level failure: nothing answered at
// all (connection refused, DNS failure, reset mid-response). It is
// retried like any transient error, but callers that exhaust the
// budget can detect it and report "service unreachable" instead of an
// HTTP failure.
type ConnectError struct{ Err error }

func (e *ConnectError) Error() string { return "connecting to server: " + e.Err.Error() }
func (e *ConnectError) Unwrap() error { return e.Err }

// IsConnectError reports whether err (at any wrap depth) is a
// transport-level connection failure.
func IsConnectError(err error) bool {
	var ce *ConnectError
	return errors.As(err, &ce)
}

// IncompatibleError is the parsed 409 answer to a publish: the policy
// rejected the revision, with the machine-readable change list.
type IncompatibleError api.Conflict

func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("%s: %d breaking change(s) against version %d under policy %q",
		e.Subject, len(e.Changes), e.Against, e.Policy)
}

// Options tunes a Client.
type Options struct {
	// HTTP is the underlying transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retry is the backoff policy for transient failures; the zero
	// value means retry.Policy defaults (4 attempts, 100ms base, 5s cap).
	Retry retry.Policy
	// APIKey, when set, is sent as X-API-Key on every request (the
	// server's rate-limiter key).
	APIKey string
	// Metrics, when non-nil, receives the client's retry instruments:
	// retry_attempts_total, retry_success_total, retry_exhausted_total.
	Metrics *metrics.Registry
}

// Client talks to one ccserved base URL. Safe for concurrent use.
// Against a shard cluster the client is shard-aware: it caches the
// cluster's shard map (fetched whenever a 421 reveals the cache is
// missing or stale), routes subject-scoped calls to the owning shard
// directly, and follows ownership hints with a bounded hop budget.
type Client struct {
	base   string
	http   *http.Client
	policy retry.Policy
	apiKey string

	// shardMu guards shardMap, the cached cluster topology; nil until
	// the first 421 teaches the client it is talking to a cluster.
	shardMu  sync.Mutex
	shardMap *shard.Map

	attempts  *metrics.Counter
	successes *metrics.Counter
	exhausted *metrics.Counter
}

// New builds a Client for baseURL (e.g. "http://localhost:8080").
func New(baseURL string, opts Options) *Client {
	c := &Client{
		base:   strings.TrimRight(baseURL, "/"),
		http:   opts.HTTP,
		policy: opts.Retry,
		apiKey: opts.APIKey,
	}
	if c.http == nil {
		c.http = http.DefaultClient
	}
	if mx := opts.Metrics; mx != nil {
		c.attempts = mx.Counter("retry_attempts_total", "Request attempts made by the ccserved client (first tries included).")
		c.successes = mx.Counter("retry_success_total", "Client requests that eventually succeeded.")
		c.exhausted = mx.Counter("retry_exhausted_total", "Client requests abandoned after the retry budget ran out.")
	}
	return c
}

// do runs one exchange against the configured base URL.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte) ([]byte, error) {
	return c.doAt(ctx, c.base, method, path, query, body)
}

// doSubject runs one subject-scoped exchange with shard routing, then
// — on the failures a cluster heal or rebalance produces — refreshes
// the cached shard map from any live node and retries exactly once:
//
//   - a routing loop, a dead owner, or a terminal 421 means the cached
//     map (or the cluster's own hints) pointed at stale topology;
//   - a 503 migrating means the subject is mid-move, so the client
//     waits out the server's Retry-After (bounded) before the retry.
//
// One retry is deliberate: a second failure under a freshly fetched map
// is the cluster's verdict, not the cache's.
func (c *Client) doSubject(ctx context.Context, subject, method, path string, query url.Values, body []byte) ([]byte, error) {
	out, err := c.doSubjectOnce(ctx, subject, method, path, query, body)
	if err == nil {
		return out, nil
	}
	var ae *APIError
	switch {
	case errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable && ae.Code == "migrating":
		if waitErr := c.sleep(ctx, migrateWait(ae.RetryAfter())); waitErr != nil {
			return nil, err
		}
		c.refreshShardMapAny(ctx)
	case errors.Is(err, ErrRoutingLoop),
		IsConnectError(err),
		errors.As(err, &ae) && ae.Status == http.StatusMisdirectedRequest:
		if !c.refreshShardMapAny(ctx) {
			return nil, err
		}
	default:
		return nil, err
	}
	return c.doSubjectOnce(ctx, subject, method, path, query, body)
}

// migrateWait bounds how long one call blocks on a 503 migrating
// before retrying: the server's Retry-After, floored at one second and
// capped at ten.
func migrateWait(hint time.Duration) time.Duration {
	if hint < time.Second {
		hint = time.Second
	}
	if hint > 10*time.Second {
		hint = 10 * time.Second
	}
	return hint
}

// sleep delegates to the retry policy's injected Sleep (tests pin it
// to run without real time), falling back to a ctx-aware timer.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.policy.Sleep != nil {
		return c.policy.Sleep(ctx, d)
	}
	return sleepCtx(ctx, d)
}

// sleepCtx sleeps for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// refreshShardMapAny re-fetches the shard map from whichever cluster
// node answers first — every cached primary and replica, then the
// configured base URL — and reports whether a newer (or first) map was
// cached. This is the client's failover path: after a supervisor
// promotes a replica or evacuates a dead shard, the cached map names a
// node that no longer owns (or no longer exists), and only a live node
// can say where the subjects went.
func (c *Client) refreshShardMapAny(ctx context.Context) bool {
	c.shardMu.Lock()
	cached := c.shardMap
	c.shardMu.Unlock()
	var before int64
	var addrs []string
	if cached != nil {
		before = cached.Epoch
		for _, sh := range cached.Shards {
			addrs = append(addrs, sh.Addr)
			addrs = append(addrs, sh.Replicas...)
		}
	}
	addrs = append(addrs, c.base)
	seen := map[string]bool{}
	for _, addr := range addrs {
		addr = strings.TrimRight(addr, "/")
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		c.refreshShardMap(ctx, addr, 0)
		c.shardMu.Lock()
		m := c.shardMap
		c.shardMu.Unlock()
		if m != nil && (cached == nil || m.Epoch > before) {
			return true
		}
	}
	return false
}

// doSubjectOnce runs one subject-scoped exchange with shard routing:
// the cached shard map picks the starting node, and ownership hints —
// 421 wrong_shard owners, 503 read_only primaries — are followed up to
// maxOwnerHops before the call fails with ErrRoutingLoop. Each 421
// also refreshes the cached map when its epoch is stale, so the next
// call starts at the right node.
func (c *Client) doSubjectOnce(ctx context.Context, subject, method, path string, query url.Values, body []byte) ([]byte, error) {
	base := c.base
	if owner := c.shardOwner(subject); owner != "" {
		base = owner
	}
	visited := map[string]bool{}
	var lastErr error
	for hop := 0; hop <= maxOwnerHops; hop++ {
		if visited[base] {
			return nil, fmt.Errorf("%w: %s already visited", ErrRoutingLoop, base)
		}
		visited[base] = true
		out, err := c.doAt(ctx, base, method, path, query, body)
		if err == nil {
			return out, nil
		}
		hint := ownershipHint(err)
		if hint == "" {
			// A hinted node that cannot even be dialed: the refusal that
			// sent us here is the more useful verdict — it still names
			// the owner, so the caller can report or retry against it.
			if IsConnectError(err) && lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		lastErr = err
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusMisdirectedRequest {
			c.refreshShardMap(ctx, hint, ae.Epoch)
		}
		base = strings.TrimRight(hint, "/")
	}
	return nil, fmt.Errorf("%w: gave up after %d hop(s): %v", ErrRoutingLoop, maxOwnerHops, lastErr)
}

// ownershipHint extracts the next node to try from a routing refusal:
// the owner of a 421 wrong_shard, or the primary of a replica's 503
// read_only. Anything else — including a read_only with no primary
// hint, which marks a degraded single node, not a routing matter —
// yields no hint.
func ownershipHint(err error) string {
	var ae *APIError
	if !errors.As(err, &ae) {
		return ""
	}
	switch {
	case ae.Status == http.StatusMisdirectedRequest:
		if ae.Owner != "" {
			return ae.Owner
		}
		return ae.Primary
	case ae.Status == http.StatusServiceUnavailable && ae.Code == "read_only":
		return ae.Primary
	}
	return ""
}

// shardOwner resolves a subject against the cached shard map; "" when
// no map is cached (or the map names no address).
func (c *Client) shardOwner(subject string) string {
	c.shardMu.Lock()
	m := c.shardMap
	c.shardMu.Unlock()
	if m == nil {
		return ""
	}
	return strings.TrimRight(m.Route(subject).Owner.Addr, "/")
}

// refreshShardMap fetches /v1/shard/map from addr and caches it when it
// is newer than what is held. Best-effort: a cluster that answers 421s
// keeps working without the cache, just with one extra hop per call.
func (c *Client) refreshShardMap(ctx context.Context, addr string, epoch int64) {
	c.shardMu.Lock()
	cached := c.shardMap
	c.shardMu.Unlock()
	if cached != nil && epoch != 0 && cached.Epoch >= epoch {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(addr, "/")+"/v1/shard/map", nil)
	if err != nil {
		return
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return
	}
	m, err := shard.ParseMap(data)
	if err != nil {
		return
	}
	c.shardMu.Lock()
	if c.shardMap == nil || m.Epoch > c.shardMap.Epoch {
		c.shardMap = m
	}
	c.shardMu.Unlock()
}

// doAt runs one HTTP exchange against base under the retry policy and
// returns the response body. Request bodies are replayed from memory on
// retries.
func (c *Client) doAt(ctx context.Context, base, method, path string, query url.Values, body []byte) ([]byte, error) {
	u := base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var out []byte
	err := retry.Do(ctx, c.policy, func(ctx context.Context) error {
		if c.attempts != nil {
			c.attempts.Inc()
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return retry.Permanent(err)
		}
		if c.apiKey != "" {
			req.Header.Set("X-API-Key", c.apiKey)
		}
		// Propagate the remaining budget so the server sheds work this
		// client would not wait for anyway.
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem > 0 {
				req.Header.Set("X-Request-Timeout", rem.Round(time.Millisecond).String())
			}
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return &ConnectError{Err: err}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return &ConnectError{Err: err}
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			out = data
			return nil
		}
		ae := decodeError(resp, data)
		if !ae.retryable() {
			return retry.Permanent(ae)
		}
		// A replica's read_only names its primary: retrying here cannot
		// succeed, the caller should redirect instead. A read_only with
		// no hint is a degraded primary and stays retryable — it may
		// recover (the chaos drills depend on exactly that).
		if ae.Status == http.StatusServiceUnavailable && ae.Code == "read_only" && ae.Primary != "" {
			return retry.Permanent(ae)
		}
		return ae
	})
	if err != nil {
		// Permanent server answers (4xx) are a final verdict, not an
		// exhausted budget; everything else spent its retries.
		var ae *APIError
		if c.exhausted != nil && (!errors.As(err, &ae) || ae.retryable()) {
			c.exhausted.Inc()
		}
		return nil, err
	}
	if c.successes != nil {
		c.successes.Inc()
	}
	return out, nil
}

// decodeError reads a non-2xx answer: the error envelope when the body
// is one, the Location header as the primary hint when the envelope
// names none, and the Retry-After delay.
func decodeError(resp *http.Response, data []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Body: data}
	var env api.Error
	if json.Unmarshal(data, &env) == nil {
		ae.Code, ae.Message, ae.findings = env.Code, env.Message, env.Findings
		ae.Primary, ae.Owner, ae.Epoch = env.Primary, env.Owner, env.Epoch
	}
	if ae.Primary == "" {
		ae.Primary = resp.Header.Get("Location")
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.retryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

// decode unmarshals the body of a successful exchange into a T.
func decode[T any](data []byte, err error) (T, error) {
	var v T
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		var zero T
		return zero, fmt.Errorf("decoding %T answer: %w", v, err)
	}
	return v, nil
}

// generateQuery carries the generation options that a publish and a
// job submission share; empty ones keep the server's defaults.
func generateQuery(library, root, style, target string, annotate bool) url.Values {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	q.Set("library", library)
	set("root", root)
	set("style", style)
	set("target", target)
	if annotate {
		q.Set("annotate", "true")
	}
	return q
}

// PublishParams are the generation options of a remote publish; they
// map onto the /v1/generate query parameters.
type PublishParams struct {
	Library  string
	Root     string
	Style    string // "shared" (default) or "composite"
	Annotate bool
	Policy   string // "", "none" or "backward"
}

func (p PublishParams) query() url.Values {
	q := generateQuery(p.Library, p.Root, p.Style, "", p.Annotate)
	if p.Policy != "" {
		q.Set("policy", p.Policy)
	}
	return q
}

// Publish sends xmi as the next version of subject. A policy rejection
// surfaces as *IncompatibleError (permanent, never retried).
func (c *Client) Publish(ctx context.Context, subject string, xmi []byte, params PublishParams) (*api.Version, error) {
	data, err := c.doSubject(ctx, subject, http.MethodPost, "/v1/repo/subjects/"+url.PathEscape(subject)+"/versions", params.query(), xmi)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusConflict {
		var body api.Incompatible
		if json.Unmarshal(ae.Body, &body) == nil {
			ie := IncompatibleError(body.Conflict)
			return nil, &ie
		}
	}
	return decode[*api.Version](data, err)
}

// Check runs the compatibility gate against subject without storing
// anything.
func (c *Client) Check(ctx context.Context, subject string, xmi []byte) (*api.Compat, error) {
	return decode[*api.Compat](c.doSubject(ctx, subject, http.MethodPost, "/v1/repo/subjects/"+url.PathEscape(subject)+"/compat", nil, xmi))
}

// Subjects lists every subject in the remote repository.
func (c *Client) Subjects(ctx context.Context) ([]repo.SubjectInfo, error) {
	return decode[[]repo.SubjectInfo](c.do(ctx, http.MethodGet, "/v1/repo/subjects", nil, nil))
}

// ListAll fetches the cluster-wide aggregate subject listing. Any node
// of a shard cluster answers with the merged view; an unsharded server
// answers with its local subjects in the same envelope. Servers from
// before the aggregate endpoint answer 404 — callers can fall back to
// Subjects.
func (c *Client) ListAll(ctx context.Context) (*api.Aggregate, error) {
	return decode[*api.Aggregate](c.do(ctx, http.MethodGet, "/v1/repo", nil, nil))
}

// Versions lists the versions of subject.
func (c *Client) Versions(ctx context.Context, subject string) (*api.VersionList, error) {
	return decode[*api.VersionList](c.doSubject(ctx, subject, http.MethodGet, "/v1/repo/subjects/"+url.PathEscape(subject)+"/versions", nil, nil))
}

// versionPath renders the {number} path segment ("latest" for 0).
func versionPath(subject string, number int) string {
	n := "latest"
	if number > 0 {
		n = strconv.Itoa(number)
	}
	return "/v1/repo/subjects/" + url.PathEscape(subject) + "/versions/" + n
}

// Version fetches one version's metadata.
func (c *Client) Version(ctx context.Context, subject string, number int) (*repo.Version, error) {
	q := url.Values{"format": []string{"json"}}
	v, err := decode[*api.Version](c.doSubject(ctx, subject, http.MethodGet, versionPath(subject, number), q, nil))
	if err != nil {
		return nil, err
	}
	return &v.Version, nil
}

// File fetches one named schema file of a stored version.
func (c *Client) File(ctx context.Context, subject string, number int, name string) ([]byte, error) {
	q := url.Values{"file": []string{name}}
	return c.doSubject(ctx, subject, http.MethodGet, versionPath(subject, number), q, nil)
}

// Zip fetches the stored schema set (plus diagnostics.json) as the
// server's deterministic zip archive.
func (c *Client) Zip(ctx context.Context, subject string, number int) ([]byte, error) {
	return c.doSubject(ctx, subject, http.MethodGet, versionPath(subject, number), nil, nil)
}
