package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-ccts/ccts/internal/health"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/retry"
)

// ErrBehind reports a promotion refused because the follower knows the
// primary committed records it has not applied: promoting would silently
// drop them. Catch the follower up (or accept the loss by restarting it
// without -replica-of) before promoting.
var ErrBehind = errors.New("repl: refusing promotion: follower is behind the last known primary seq")

// errResync marks a stream failure that invalidates the follower's
// position — it must discard and re-bootstrap, not reconnect.
var errResync = errors.New("repl: stream diverged")

// FollowerOptions tunes a Follower.
type FollowerOptions struct {
	// HTTP performs all requests to the primary; nil uses a dedicated
	// client (not http.DefaultClient — streams must not share another
	// subsystem's timeout).
	HTTP *http.Client
	// PollWindow bounds one stream request; it should exceed the
	// primary's serve window so idle streams end server-side. 0 = 35s.
	PollWindow time.Duration
	// ProbeInterval paces the /healthz probe of the primary; 0 = 2s.
	ProbeInterval time.Duration
	// PromoteMisses is how many consecutive probe failures arm
	// auto-promotion; 0 = 3.
	PromoteMisses int
	// AutoPromote flips the follower into a writable primary once the
	// probe trips PromoteMisses times (subject to the known-behind
	// refusal). Off by default: promotion is an operator decision.
	AutoPromote bool
	// Retry shapes blob and snapshot fetches (not the stream itself,
	// whose reconnect loop is the retry).
	Retry retry.Policy
	// Logf observes replication lifecycle events; nil discards.
	Logf func(format string, args ...any)
}

// Follower drives one replica: it bootstraps from the primary's
// snapshot when needed, tails its WAL stream, applies frames to the
// local repository, watches the primary's health, and carries the
// promotion state the serving layer consults to gate writes.
type Follower struct {
	repo    *repo.Repo
	primary string
	http    *http.Client
	opts    FollowerOptions

	// upstream tracks the PRIMARY's reachability (not the local disk):
	// probe misses demote it, recoveries promote it back.
	upstream *health.Tracker

	appliedSeq atomic.Int64
	primarySeq atomic.Int64
	resyncs    atomic.Int64
	frames     atomic.Int64
	missStreak atomic.Int64
	promoted   atomic.Bool
	// caughtUpAt is the unix-nano instant the follower last matched the
	// primary's seq; lag is measured from it while behind.
	caughtUpAt atomic.Int64
	promoting  atomic.Bool

	mu        sync.Mutex
	started   bool
	cancel    context.CancelFunc
	done      chan struct{}
	probeStop func()

	// m is nil until Instrument, which may run while the replication
	// loop already reads it.
	m atomic.Pointer[followerMetrics]
}

// followerMetrics are the instruments Instrument registers.
type followerMetrics struct {
	applied, primarySeq, lag *metrics.Gauge
	resyncs, frames          *metrics.Counter
}

// NewFollower prepares a follower replicating r from the primary at
// primaryURL (scheme://host[:port], no trailing slash needed). Call
// Start to begin streaming.
func NewFollower(r *repo.Repo, primaryURL string, opts FollowerOptions) *Follower {
	f := &Follower{
		repo:    r,
		primary: strings.TrimRight(primaryURL, "/"),
		opts:    opts,
		http:    opts.HTTP,
	}
	if f.http == nil {
		f.http = &http.Client{}
	}
	if f.opts.PollWindow <= 0 {
		f.opts.PollWindow = 35 * time.Second
	}
	if f.opts.ProbeInterval <= 0 {
		f.opts.ProbeInterval = 2 * time.Second
	}
	if f.opts.PromoteMisses <= 0 {
		f.opts.PromoteMisses = 3
	}
	f.upstream = health.NewTracker(health.Options{})
	f.appliedSeq.Store(r.WALSeq())
	f.caughtUpAt.Store(time.Now().UnixNano())
	return f
}

// Instrument registers the replication gauges and counters. It is safe
// on a started follower.
func (f *Follower) Instrument(reg *metrics.Registry) {
	m := &followerMetrics{
		applied:    reg.Gauge("repl_applied_seq", "Last WAL sequence number applied from the primary."),
		primarySeq: reg.Gauge("repl_primary_seq", "Primary's committed WAL sequence number as last observed."),
		lag:        reg.Gauge("repl_lag_seconds", "Seconds since the follower last matched the primary's seq (0 when caught up)."),
		resyncs:    reg.Counter("repl_resync_total", "Snapshot re-bootstraps after divergence or tail loss."),
		frames:     reg.Counter("repl_frames_total", "WAL frames applied from the primary."),
	}
	m.applied.Set(f.appliedSeq.Load())
	f.m.Store(m)
}

// Start launches the stream and the primary probe. Idempotent.
func (f *Follower) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan struct{})
	go f.run(ctx)
	f.probeStop = f.upstream.Start(f.opts.ProbeInterval, f.probeOnce)
}

// Stop halts the stream and the probe and waits for both. Idempotent
// and safe after Promote (which already stopped the stream).
func (f *Follower) Stop() {
	f.mu.Lock()
	cancel, done, probeStop := f.cancel, f.done, f.probeStop
	f.cancel, f.probeStop = nil, nil
	f.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	if probeStop != nil {
		probeStop()
	}
}

// Promoted reports whether the follower has been flipped into a
// writable primary.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// PrimaryURL returns the primary this follower replicates (the hint
// surfaced to clients whose writes land here).
func (f *Follower) PrimaryURL() string { return f.primary }

// Upstream exposes the primary-reachability state machine.
func (f *Follower) Upstream() *health.Tracker { return f.upstream }

// AppliedSeq returns the last sequence number applied locally.
func (f *Follower) AppliedSeq() int64 { return f.appliedSeq.Load() }

// Promote flips the follower into a writable primary: the stream is
// stopped and the read-only write gate opens. It refuses with ErrBehind
// while the follower has observed a primary seq beyond what it applied
// — promoting then would silently drop committed records. Idempotent.
func (f *Follower) Promote() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted.Load() {
		return nil
	}
	applied, primarySeq := f.appliedSeq.Load(), f.primarySeq.Load()
	if applied < primarySeq {
		return fmt.Errorf("%w (applied %d, primary %d)", ErrBehind, applied, primarySeq)
	}
	if f.cancel != nil {
		f.cancel()
		<-f.done
		f.cancel = nil
	}
	f.promoted.Store(true)
	f.logf("repl: promoted to primary at seq %d (last known primary seq %d)", applied, primarySeq)
	return nil
}

// Status is the observable replication state for /healthz.
type Status struct {
	Primary    string  `json:"primary"`
	Promoted   bool    `json:"promoted"`
	AppliedSeq int64   `json:"appliedSeq"`
	PrimarySeq int64   `json:"primarySeq"`
	LagSeconds float64 `json:"lagSeconds"`
	Resyncs    int64   `json:"resyncs"`
	// Upstream is the primary-reachability state (healthy, degraded,
	// read-only — the last meaning the primary is considered down).
	Upstream string `json:"upstream"`
}

// Status snapshots the follower.
func (f *Follower) Status() Status {
	return Status{
		Primary:    f.primary,
		Promoted:   f.promoted.Load(),
		AppliedSeq: f.appliedSeq.Load(),
		PrimarySeq: f.primarySeq.Load(),
		LagSeconds: f.lagSeconds(),
		Resyncs:    f.resyncs.Load(),
		Upstream:   f.upstream.State().String(),
	}
}

// lagSeconds is 0 while caught up, else the time since the follower
// last matched the primary's seq.
func (f *Follower) lagSeconds() float64 {
	if f.appliedSeq.Load() >= f.primarySeq.Load() {
		return 0
	}
	return time.Since(time.Unix(0, f.caughtUpAt.Load())).Seconds()
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// run is the replication loop: stream, and on divergence re-bootstrap.
// Transport-level failures reconnect from the applied seq — they never
// cost a resync.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	for ctx.Err() == nil {
		err := f.streamOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			// Window elapsed or clean EOF; reconnect immediately.
		case errors.Is(err, errResync):
			f.logf("repl: stream diverged, re-bootstrapping: %v", err)
			if berr := f.bootstrap(ctx); berr != nil {
				if ctx.Err() != nil {
					return
				}
				f.logf("repl: bootstrap failed: %v", berr)
				f.pause(ctx, time.Second)
			}
		default:
			// Transport trouble: back off briefly, then resume from the
			// applied seq.
			f.pause(ctx, 500*time.Millisecond)
		}
	}
}

// pause sleeps d or until ctx is done.
func (f *Follower) pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// streamOnce opens one long-poll stream from the local applied seq and
// applies every complete frame it carries. A 410 or an unappliable
// complete frame answers errResync; a connection cut mid-frame (the
// torn-stream case) is NOT divergence — the partial line is dropped and
// the caller reconnects from the applied seq.
func (f *Follower) streamOnce(ctx context.Context) error {
	reqCtx, cancel := context.WithTimeout(ctx, f.opts.PollWindow)
	defer cancel()
	from := f.repo.WALSeq()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
		fmt.Sprintf("%s/v1/repl/wal?from=%d", f.primary, from), nil)
	if err != nil {
		return err
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return fmt.Errorf("%w: primary no longer retains seq %d", errResync, from)
	default:
		return fmt.Errorf("repl: stream request: unexpected status %s", resp.Status)
	}
	f.observePrimarySeq(resp.Header.Get(SeqHeader))

	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 && strings.HasSuffix(line, "\n") {
			if aerr := f.applyLine(ctx, []byte(line)); aerr != nil {
				return aerr
			}
			continue
		}
		// No terminated line: either a clean end of the window (EOF with
		// no partial) or a connection cut mid-frame. Both reconnect from
		// the applied seq; the torn partial is simply dropped.
		if err != nil {
			return nil
		}
	}
}

// observePrimarySeq folds the primary's advertised seq into the lag
// accounting.
func (f *Follower) observePrimarySeq(h string) {
	seq, err := strconv.ParseInt(h, 10, 64)
	if err != nil || seq < 0 {
		return
	}
	// The primary's seq only grows; keep the max so a stale header from
	// a slow response never rewinds the lag window.
	for {
		cur := f.primarySeq.Load()
		if seq <= cur {
			break
		}
		if f.primarySeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	if m := f.m.Load(); m != nil {
		m.primarySeq.Set(f.primarySeq.Load())
	}
	f.updateLag()
}

// applyLine fetches a frame's missing blobs and commits it locally.
func (f *Follower) applyLine(ctx context.Context, line []byte) error {
	fr, err := repo.DecodeFrame(line)
	if err != nil {
		// A COMPLETE line that fails CRC/structure is corruption on the
		// wire or divergence, not a torn stream.
		return fmt.Errorf("%w: %v", errResync, err)
	}
	if fr.Seq <= f.repo.WALSeq() {
		return nil // overlap with an earlier stream; already applied
	}
	for _, sha := range fr.Blobs {
		if err := f.fetchBlob(ctx, sha); err != nil {
			return err
		}
	}
	seq, err := f.repo.ApplyFrame(line)
	switch {
	case err == nil:
	case errors.Is(err, repo.ErrSeqGap), errors.Is(err, repo.ErrDiverged), errors.Is(err, repo.ErrBadFrame):
		return fmt.Errorf("%w: %v", errResync, err)
	default:
		return err
	}
	f.appliedSeq.Store(seq)
	f.frames.Add(1)
	if m := f.m.Load(); m != nil {
		m.applied.Set(seq)
		m.frames.Inc()
	}
	if seq > f.primarySeq.Load() {
		f.primarySeq.Store(seq)
	}
	f.updateLag()
	return nil
}

// updateLag refreshes the caught-up instant and the lag gauge.
func (f *Follower) updateLag() {
	if f.appliedSeq.Load() >= f.primarySeq.Load() {
		f.caughtUpAt.Store(time.Now().UnixNano())
	}
	if m := f.m.Load(); m != nil {
		m.lag.Set(int64(f.lagSeconds()))
	}
}

// fetchBlob ensures one content address is resident, fetching it from
// the primary under the retry policy and verifying the digest.
func (f *Follower) fetchBlob(ctx context.Context, sha string) error {
	if f.repo.HasBlob(sha) {
		return nil
	}
	return retry.Do(ctx, f.opts.Retry, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/repl/blob/"+sha, nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := f.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			err := fmt.Errorf("repl: blob %s: unexpected status %s", sha, resp.Status)
			if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
				return retry.Permanent(err)
			}
			return err
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		got, err := f.repo.PutBlob(data)
		if err != nil {
			return retry.Permanent(err)
		}
		if got != sha {
			return retry.Permanent(fmt.Errorf("repl: blob %s arrived with digest %s", sha, got))
		}
		return nil
	})
}

// bootstrap installs the primary's snapshot: manifest, then every live
// blob it references, then the atomic state cutover; the stream resumes
// from the snapshot's WALSeq.
func (f *Follower) bootstrap(ctx context.Context) error {
	var data []byte
	err := retry.Do(ctx, f.opts.Retry, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/repl/snapshot", nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := f.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("repl: snapshot: unexpected status %s", resp.Status)
		}
		data, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		return err
	}
	walSeq, blobs, err := repo.SnapshotBlobs(data)
	if err != nil {
		return err
	}
	for _, sha := range blobs {
		if err := f.fetchBlob(ctx, sha); err != nil {
			return err
		}
	}
	if err := f.repo.InstallSnapshot(data); err != nil {
		return err
	}
	f.appliedSeq.Store(walSeq)
	f.resyncs.Add(1)
	if m := f.m.Load(); m != nil {
		m.applied.Set(walSeq)
		m.resyncs.Inc()
	}
	if walSeq > f.primarySeq.Load() {
		f.primarySeq.Store(walSeq)
	}
	f.updateLag()
	f.logf("repl: bootstrapped from snapshot at seq %d (%d blobs)", walSeq, len(blobs))
	return nil
}

// Resyncs counts snapshot re-bootstraps.
func (f *Follower) Resyncs() int64 { return f.resyncs.Load() }

// probeOnce is the health probe of the PRIMARY: a HEAD /healthz that is
// anything but 200 counts as a miss. Consecutive misses beyond
// PromoteMisses trigger auto-promotion when enabled. Once promoted the
// probe is inert (the loop keeps ticking until Stop so teardown stays
// single-path).
func (f *Follower) probeOnce() error {
	if f.promoted.Load() {
		return nil
	}
	err := f.probePrimary()
	if err == nil {
		f.missStreak.Store(0)
		return nil
	}
	misses := f.missStreak.Add(1)
	if f.opts.AutoPromote && misses >= int64(f.opts.PromoteMisses) && f.promoting.CompareAndSwap(false, true) {
		// Promote on a separate goroutine: it joins the stream loop,
		// and must not stall the probe ticker while doing so.
		go func() {
			defer f.promoting.Store(false)
			if perr := f.Promote(); perr != nil {
				f.logf("repl: auto-promote refused: %v", perr)
			}
		}()
	}
	return err
}

// probePrimary performs one reachability check.
func (f *Follower) probePrimary() error {
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, f.primary+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: primary /healthz answered %s", resp.Status)
	}
	return nil
}
