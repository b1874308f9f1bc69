package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-ccts/ccts/internal/metrics"
)

// Supervisor closes the loop between the cluster's resilience
// subsystems: it probes every peer shard primary's /healthz with
// miss-count hysteresis (the same discipline internal/repl uses for
// auto-promotion), and on confirmed loss of a primary it heals the
// topology without an operator:
//
//   - the shard lists Replicas → promote the first promotable one
//     (POST /v1/repl/promote, idempotent) and install a new map epoch
//     whose Addr is the replica's, cluster-wide;
//   - no replicas → evacuate the shard's subjects onto the survivors
//     through the injected Evacuate callback (the server's existing
//     crash-resumable two-epoch rebalance).
//
// Any number of supervisors may run concurrently: every topology
// change goes through Router.Install's epoch CAS (a conflicting map at
// the same epoch is refused, a byte-identical one acknowledges as a
// no-op), so two supervisors racing to heal the same loss either
// install the identical deterministic map or exactly one wins and the
// other observes ErrStaleEpoch and re-reads. A primary that is merely
// degraded stays untouched; only a hard-down node (connect failure or
// non-200 /healthz) or one self-reporting read-only trips the
// hysteresis, because a read-only primary still serves the reads an
// evacuation pulls from.
type Supervisor struct {
	rt   *Router
	opts SupervisorOptions
	http *http.Client

	mu       sync.Mutex
	misses   map[string]int    // shard ID (or replica addr) -> consecutive probe misses
	probeErr map[string]string // last probe failure, for Status
	started  bool
	cancel   context.CancelFunc
	done     chan struct{}

	// healMu serializes heal actions across the probe loop and HealNow.
	healMu sync.Mutex

	failovers   atomic.Int64
	evacuations atomic.Int64

	mFailovers *metrics.Counter
	mEvac      *metrics.Counter
	mDead      *metrics.Gauge
}

// SupervisorOptions tunes a Supervisor.
type SupervisorOptions struct {
	// HTTP dials peers; nil uses a plain client (the supervisor speaks
	// raw HTTP deliberately — it must keep working while maps disagree).
	HTTP *http.Client
	// ProbeInterval paces the probe loop; 0 means 2s. Each probe times
	// out after one interval.
	ProbeInterval time.Duration
	// FailMisses is how many consecutive failed probes confirm a
	// primary lost; 0 means 3. Hysteresis: a single dropped probe never
	// triggers a failover.
	FailMisses int
	// Evacuate moves a dead shard's subjects onto the surviving
	// primaries — the server injects its rebalance here so the
	// supervisor reuses the crash-resumable two-epoch protocol without
	// importing the serving layer. nil disables the evacuation path.
	Evacuate func(ctx context.Context, survivors []Shard, vnodes int) error
	// HealTimeout bounds one heal action (promotion + map push, or a
	// whole evacuation); 0 means 2 minutes.
	HealTimeout time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// NewSupervisor builds a Supervisor over the node's router. Call Start
// to begin probing; Stop to halt.
func NewSupervisor(rt *Router, opts SupervisorOptions) *Supervisor {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.FailMisses <= 0 {
		opts.FailMisses = 3
	}
	if opts.HealTimeout <= 0 {
		opts.HealTimeout = 2 * time.Minute
	}
	s := &Supervisor{
		rt:       rt,
		opts:     opts,
		http:     opts.HTTP,
		misses:   map[string]int{},
		probeErr: map[string]string{},
	}
	if s.http == nil {
		s.http = &http.Client{}
	}
	return s
}

// Instrument registers the supervisor's instruments.
func (s *Supervisor) Instrument(mx *metrics.Registry) {
	s.mFailovers = mx.Counter("shard_failovers_total", "Shard primaries replaced by a promoted replica.")
	s.mEvac = mx.Counter("shard_evacuations_total", "Dead shards whose subjects were evacuated onto survivors.")
	s.mDead = mx.Gauge("shard_dead_nodes", "Peer shard primaries currently past the probe-miss threshold.")
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Start launches the probe loop. Idempotent.
func (s *Supervisor) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan struct{})
	go s.loop(ctx)
}

// Stop halts the probe loop and waits for it to exit. Idempotent.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	cancel, done := s.cancel, s.done
	s.mu.Unlock()
	cancel()
	<-done
}

func (s *Supervisor) loop(ctx context.Context) {
	defer close(s.done)
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.sweep(ctx, s.opts.FailMisses)
		}
	}
}

// SupervisorStatus is the snapshot /healthz publishes.
type SupervisorStatus struct {
	ProbeInterval time.Duration
	FailMisses    int
	// Suspects maps probe targets (peer shard IDs, and replica
	// addresses) with a non-zero miss streak to that streak.
	Suspects map[string]int
	// DeadNodes lists peer shard IDs at or past the miss threshold.
	DeadNodes   []string
	Failovers   int64
	Evacuations int64
}

// Status reports the supervisor's current view.
func (s *Supervisor) Status() SupervisorStatus {
	st := SupervisorStatus{
		ProbeInterval: s.opts.ProbeInterval,
		FailMisses:    s.opts.FailMisses,
		Suspects:      map[string]int{},
		Failovers:     s.failovers.Load(),
		Evacuations:   s.evacuations.Load(),
	}
	ids := map[string]bool{}
	for _, sh := range s.rt.Map().Shards {
		ids[sh.ID] = true
	}
	s.mu.Lock()
	for k, n := range s.misses {
		if n > 0 {
			st.Suspects[k] = n
		}
		if n >= s.opts.FailMisses && ids[k] {
			st.DeadNodes = append(st.DeadNodes, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(st.DeadNodes)
	return st
}

// Failovers reports completed replica promotions.
func (s *Supervisor) Failovers() int64 { return s.failovers.Load() }

// Evacuations reports completed dead-shard evacuations.
func (s *Supervisor) Evacuations() int64 { return s.evacuations.Load() }

// HealReport summarizes one supervision pass (POST /v1/shard/heal).
type HealReport struct {
	Checked   int               `json:"checked"`
	Promoted  []string          `json:"promoted,omitempty"`  // shard IDs failed over to a replica
	Evacuated []string          `json:"evacuated,omitempty"` // shard IDs evacuated onto survivors
	Failing   map[string]string `json:"failing,omitempty"`   // target -> probe/heal failure
}

// HealNow probes every peer once and heals any that fails immediately,
// skipping the miss hysteresis — the manual trigger behind
// POST /v1/shard/heal. Safe to call while the probe loop runs.
func (s *Supervisor) HealNow(ctx context.Context) HealReport {
	return s.sweep(ctx, 1)
}

// sweep probes every peer primary (and, for visibility and map
// anti-entropy, every replica) and heals primaries whose miss streak
// reaches threshold.
func (s *Supervisor) sweep(ctx context.Context, threshold int) HealReport {
	rep := HealReport{Failing: map[string]string{}}
	m := s.rt.Map()
	for _, sh := range m.Shards {
		if sh.ID == s.rt.Self() {
			continue
		}
		rep.Checked++
		if err := s.probeAndSync(ctx, m, sh.Addr); err != nil {
			n := s.bumpMiss(sh.ID, err)
			s.logf("shard supervisor: probe of %s (%s) failed (%d/%d): %v", sh.ID, sh.Addr, n, threshold, err)
			if n >= threshold {
				if herr := s.heal(ctx, sh, &rep); herr != nil {
					rep.Failing[sh.ID] = herr.Error()
					s.logf("shard supervisor: healing %s: %v", sh.ID, herr)
				}
			} else {
				rep.Failing[sh.ID] = err.Error()
			}
		} else {
			s.clearMiss(sh.ID)
		}
		// Standby replicas are probed too: a dead replica never triggers
		// a heal, but it should be visible in Status before the day the
		// failover needs it.
		for _, raddr := range sh.Replicas {
			rep.Checked++
			if err := s.probeAndSync(ctx, m, raddr); err != nil && !isReadOnlyProbe(err) {
				s.bumpMiss(raddr, err)
				rep.Failing[raddr] = err.Error()
			} else {
				s.clearMiss(raddr)
			}
		}
	}
	s.syncDeadGauge()
	if len(rep.Failing) == 0 {
		rep.Failing = nil
	}
	return rep
}

func (s *Supervisor) bumpMiss(key string, err error) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses[key]++
	s.probeErr[key] = err.Error()
	return s.misses[key]
}

func (s *Supervisor) clearMiss(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.misses, key)
	delete(s.probeErr, key)
}

// syncDeadGauge republishes shard_dead_nodes from the current misses.
func (s *Supervisor) syncDeadGauge() {
	if s.mDead == nil {
		return
	}
	ids := map[string]bool{}
	for _, sh := range s.rt.Map().Shards {
		ids[sh.ID] = true
	}
	var n int64
	s.mu.Lock()
	for k, c := range s.misses {
		if c >= s.opts.FailMisses && ids[k] {
			n++
		}
	}
	s.mu.Unlock()
	s.mDead.Set(n)
}

// errReadOnlyProbe marks a probe that connected fine but found the
// node self-reporting read-only: dead for writes, alive for reads.
var errReadOnlyProbe = errors.New("node reports read-only")

func isReadOnlyProbe(err error) bool { return errors.Is(err, errReadOnlyProbe) }

// probeAndSync GETs addr's /healthz. A connect failure or non-200 is a
// hard miss; a 200 whose body self-reports read-only is a soft miss
// (the data plane still serves, which is exactly what lets an
// evacuation pull from it). On a healthy answer the peer's installed
// shard epoch is compared against ours and a lagging peer gets the
// current map re-pushed — anti-entropy on the probe path, so a node
// that missed a failover's map push converges within one interval.
func (s *Supervisor) probeAndSync(ctx context.Context, m *Map, addr string) error {
	ctx, cancel := context.WithTimeout(ctx, s.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(addr, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %s", resp.Status)
	}
	var doc struct {
		Status string `json:"status"`
		Shard  *struct {
			Epoch int64 `json:"epoch"`
		} `json:"shard"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		return fmt.Errorf("healthz body: %w", err)
	}
	if doc.Status == "read-only" {
		return errReadOnlyProbe
	}
	if doc.Shard != nil && doc.Shard.Epoch > 0 && doc.Shard.Epoch < m.Epoch {
		if err := PushMap(ctx, s.http, m, addr); err != nil {
			s.logf("shard supervisor: re-pushing map epoch %d to lagging %s: %v", m.Epoch, addr, err)
		} else {
			s.logf("shard supervisor: re-pushed map epoch %d to %s (was at %d)", m.Epoch, addr, doc.Shard.Epoch)
		}
	}
	return nil
}

// heal repairs one confirmed-lost primary: promotion when the shard
// lists replicas, evacuation otherwise. Serialized so overlapping
// sweeps (or a HealNow racing the loop) act one at a time; every
// topology change still goes through the Install CAS, so even two
// whole supervisor processes cannot split-brain the map.
func (s *Supervisor) heal(ctx context.Context, sh Shard, rep *HealReport) error {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, s.opts.HealTimeout)
	defer cancel()

	// Re-read the map under the lock: a concurrent heal (ours or a
	// peer supervisor's, arriving via map push) may already have
	// replaced or removed this primary.
	cur := s.rt.Map()
	entry, ok := cur.Shard(sh.ID)
	if !ok || entry.Addr != sh.Addr {
		s.clearMiss(sh.ID)
		return nil
	}

	if len(entry.Replicas) > 0 {
		return s.promoteReplica(ctx, cur, entry, rep)
	}
	return s.evacuate(ctx, cur, entry, rep)
}

// promoteReplica fails the shard over to its first promotable replica.
func (s *Supervisor) promoteReplica(ctx context.Context, cur *Map, entry Shard, rep *HealReport) error {
	var lastErr error
	for _, raddr := range entry.Replicas {
		if err := s.promote(ctx, raddr); err != nil {
			lastErr = fmt.Errorf("promoting %s: %w", raddr, err)
			s.logf("shard supervisor: %v", lastErr)
			continue
		}
		next, err := failoverMap(cur, entry.ID, raddr)
		if err != nil {
			return err
		}
		// The local install is the commit point — the epoch CAS. If a
		// peer supervisor already moved the epoch past this map, the
		// whole action aborts here before any peer sees a conflicting
		// document; the byte-identical map a racing twin derives is
		// acknowledged as a no-op instead.
		if err := s.rt.Install(next); err != nil {
			return fmt.Errorf("installing map epoch %d locally: %w", next.Epoch, err)
		}
		s.failovers.Add(1)
		if s.mFailovers != nil {
			s.mFailovers.Inc()
		}
		s.clearMiss(entry.ID)
		if rep != nil {
			rep.Promoted = append(rep.Promoted, entry.ID)
		}
		s.logf("shard supervisor: failed shard %s over to replica %s (map epoch %d)", entry.ID, raddr, next.Epoch)
		if err := s.pushEverywhere(ctx, next, entry.Addr); err != nil {
			return fmt.Errorf("failed shard %s over to %s, but: %w", entry.ID, raddr, err)
		}
		return nil
	}
	// Every replica refused (behind, unreachable). The data lives on
	// those replicas, so evacuating from the dead primary is not an
	// option — keep the miss streak and retry next sweep.
	return fmt.Errorf("no promotable replica for shard %s: %w", entry.ID, lastErr)
}

// promote POSTs /v1/repl/promote at the replica. 200 is success
// (idempotent on an already-promoted follower); 404 repl means the
// node is not a follower at all — already a standalone primary, which
// a crashed earlier failover can leave behind, so it counts as
// promoted; anything else (409 behind, connect failure) is a refusal.
func (s *Supervisor) promote(ctx context.Context, raddr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(raddr, "/")+"/v1/repl/promote", nil)
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusNotFound && bytes.Contains(body, []byte(`"repl"`)):
		return nil
	default:
		return fmt.Errorf("promote answered %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
}

// failoverMap derives the next epoch's map for a promotion: the lost
// primary's Addr becomes the promoted replica's, the replica leaves
// the standby list, and any migration endpoints denormalized to the
// dead address are rewritten to the replica (it replicated the same
// data, so pending pulls resume against it). Deterministic: two
// supervisors healing the same loss derive byte-identical maps, which
// the Install CAS then accepts as a no-op on whichever loses the race.
func failoverMap(cur *Map, id, raddr string) (*Map, error) {
	var deadAddr string
	shards := append([]Shard(nil), cur.Shards...)
	for i := range shards {
		if shards[i].ID != id {
			continue
		}
		deadAddr = shards[i].Addr
		var rest []string
		for _, r := range shards[i].Replicas {
			if r != raddr {
				rest = append(rest, r)
			}
		}
		shards[i].Addr = raddr
		shards[i].Replicas = rest
	}
	migs := append([]Migration(nil), cur.Migrations...)
	for i := range migs {
		if migs[i].FromAddr == deadAddr {
			migs[i].FromAddr = raddr
		}
		if migs[i].ToAddr == deadAddr {
			migs[i].ToAddr = raddr
		}
	}
	return NewMap(cur.Epoch+1, cur.VNodes, shards, migs)
}

// pushEverywhere pushes the (already locally installed) map to every
// node of the new topology — primaries and standbys. A 409 from a peer
// means it is already at or beyond this epoch and is tolerated; any
// other failure is reported, but the local install stands and the
// probe-path anti-entropy re-pushes to whoever was missed. The
// replaced address gets a best-effort push too: a read-only primary
// replaced by its replica is usually still listening and should learn
// it is no longer current (a hard-dead one just refuses the dial).
func (s *Supervisor) pushEverywhere(ctx context.Context, next *Map, deadAddr string) error {
	self := s.rt.SelfAddr()
	var failed []string
	for _, addr := range mapAddrs(next) {
		if addr == strings.TrimRight(deadAddr, "/") || addr == strings.TrimRight(self, "/") {
			continue
		}
		if err := PushMap(ctx, s.http, next, addr); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", addr, err))
		}
	}
	if deadAddr != "" {
		_ = PushMap(ctx, s.http, next, deadAddr)
	}
	if len(failed) > 0 {
		return fmt.Errorf("map epoch %d installed locally but not everywhere: %s", next.Epoch, strings.Join(failed, "; "))
	}
	return nil
}

// PushMap PUTs the map at one peer, tolerating 409 stale_epoch: a peer
// already ahead was moved past this map by a racing coordinator.
func PushMap(ctx context.Context, hc *http.Client, m *Map, addr string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, strings.TrimRight(addr, "/")+"/v1/shard/map", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(snippet)))
	}
	return nil
}

// evacuate moves a replica-less dead shard's subjects onto the
// survivors via the injected rebalance. Only meaningful when the dead
// node's data plane still answers reads (a read-only primary); a
// hard-dead node with no replica has nowhere to pull from, and the
// rebalance reports exactly that.
func (s *Supervisor) evacuate(ctx context.Context, cur *Map, entry Shard, rep *HealReport) error {
	if s.opts.Evacuate == nil {
		return fmt.Errorf("shard %s is down with no replicas and no evacuation hook", entry.ID)
	}
	var survivors []Shard
	for _, sh := range cur.Shards {
		if sh.ID != entry.ID {
			survivors = append(survivors, sh)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("shard %s is down and is the last shard; nothing to evacuate onto", entry.ID)
	}
	if err := s.opts.Evacuate(ctx, survivors, cur.VNodes); err != nil {
		return fmt.Errorf("evacuating shard %s: %w", entry.ID, err)
	}
	s.evacuations.Add(1)
	if s.mEvac != nil {
		s.mEvac.Inc()
	}
	s.clearMiss(entry.ID)
	if rep != nil {
		rep.Evacuated = append(rep.Evacuated, entry.ID)
	}
	s.logf("shard supervisor: evacuated shard %s onto %d survivor(s) (map epoch %d)", entry.ID, len(survivors), s.rt.Epoch())
	return nil
}

// mapAddrs unions a map's primary, replica and migration addresses.
func mapAddrs(m *Map) []string {
	seen := map[string]bool{}
	var out []string
	add := func(addr string) {
		addr = strings.TrimRight(addr, "/")
		if addr == "" || seen[addr] {
			return
		}
		seen[addr] = true
		out = append(out, addr)
	}
	for _, sh := range m.Shards {
		add(sh.Addr)
		for _, r := range sh.Replicas {
			add(r)
		}
	}
	for _, mg := range m.Migrations {
		add(mg.FromAddr)
		add(mg.ToAddr)
	}
	return out
}
