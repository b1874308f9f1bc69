package server

// The sharding layer. With Config.Shard set, this node is one primary
// in a consistent-hash cluster: every subject-scoped /v1/repo request
// is routed against the installed shard map, and requests for subjects
// owned elsewhere answer a machine-readable 421 wrong_shard envelope
// (owner address + map epoch) — or, with Config.ShardProxy, are
// transparently proxied to the owner with a hop-count loop guard.
//
//	GET  /v1/shard/map        the installed map document
//	PUT  /v1/shard/map        install a newer map (409 stale_epoch)
//	POST /v1/shard/pull       pull one subject from a peer (migration)
//	POST /v1/shard/rebalance  coordinate a topology change
//
// A rebalance is a two-epoch protocol driven by whichever node receives
// the POST: push a map carrying the new shard set plus the pending
// migrations (epoch+1; sources stay authoritative), drive each moving
// subject's pull at its destination, then push the clean map (epoch+2).
// Every step is idempotent and the authoritative owner never changes
// until the final map lands, so a crash anywhere — coordinator or a
// primary — leaves every subject readable byte-identically from exactly
// one owner, and re-POSTing the same rebalance resumes it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/shard"
)

// shardHopHeader counts proxy forwards so a stale map on two nodes can
// never bounce a request between them forever.
const shardHopHeader = "X-Shard-Hops"

// maxShardHops is the proxy-forward budget; beyond it the node answers
// 421 and lets the client resolve ownership itself.
const maxShardHops = 3

// shardPullTimeout bounds one subject's migration pull.
const shardPullTimeout = 2 * time.Minute

// shardHTTPClient dials peers for proxying, map pushes and pulls.
var shardHTTPClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// shardHops parses the forwarded-hop counter.
func shardHops(r *http.Request) int {
	n, err := strconv.Atoi(r.Header.Get(shardHopHeader))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// shardGuard routes one subject-scoped request. True means: serve it
// here. False means the guard already answered — a 421 wrong_shard
// envelope, a transparent proxy to the owner, or a 503 migrating for
// writes to a subject in flight.
func (s *Server) shardGuard(w http.ResponseWriter, r *http.Request, subject string, write bool) bool {
	if s.shard == nil {
		return true
	}
	dec := s.shard.Route(subject)
	if dec.Local {
		if write && dec.Migrating {
			s.writeError(w, &apiError{
				Status:     http.StatusServiceUnavailable,
				Code:       "migrating",
				Message:    fmt.Sprintf("subject %q is migrating to shard %s; retry after the rebalance commits", subject, dec.Target.ID),
				RetryAfter: 2 * time.Second,
			})
			return false
		}
		return true
	}
	if s.cfg.ShardProxy && shardHops(r) < maxShardHops {
		s.proxyToShard(w, r, dec.Owner.Addr, nil)
		return false
	}
	s.writeError(w, &apiError{
		Status:  http.StatusMisdirectedRequest,
		Code:    "wrong_shard",
		Message: fmt.Sprintf("subject %q is owned by shard %s at %s (map epoch %d)", subject, dec.Owner.ID, dec.Owner.Addr, dec.Epoch),
		Owner:   dec.Owner.Addr,
		Epoch:   dec.Epoch,
	})
	return false
}

// proxyToShard forwards the request to the owning shard verbatim, with
// the hop counter bumped. body non-nil replays an already-consumed
// request body; nil streams r.Body through.
func (s *Server) proxyToShard(w http.ResponseWriter, r *http.Request, addr string, body []byte) {
	u := strings.TrimRight(addr, "/") + r.URL.RequestURI()
	var rd io.Reader = r.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusBadGateway, Code: "shard_proxy", Message: err.Error()})
		return
	}
	for _, h := range []string{"Content-Type", "Accept", "X-API-Key", "X-Request-Timeout", "X-Request-Deadline"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(shardHopHeader, strconv.Itoa(shardHops(r)+1))
	resp, err := shardHTTPClient.Do(req)
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusBadGateway, Code: "shard_proxy", Message: fmt.Sprintf("proxying to owning shard %s: %v", addr, err)})
		return
	}
	defer resp.Body.Close()
	s.shard.CountProxied()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// shardConfigured guards the /v1/shard handlers.
func (s *Server) shardConfigured(w http.ResponseWriter) bool {
	if s.shard == nil {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: "shard", Message: "this instance is not part of a shard cluster"})
		return false
	}
	return true
}

// syncShardOwned republishes the shard_owned_subjects gauge.
func (s *Server) syncShardOwned() {
	if s.shard == nil || s.repo == nil {
		return
	}
	var n int64
	for _, sub := range s.repo.Subjects() {
		if s.shard.Route(sub.Name).Local {
			n++
		}
	}
	s.shard.SetOwned(n)
}

// handleShardMapGet is GET /v1/shard/map.
func (s *Server) handleShardMapGet(w http.ResponseWriter, r *http.Request) {
	if !s.shardConfigured(w) {
		return
	}
	data, err := s.shard.Map().Encode()
	if err != nil {
		s.writeError(w, mapError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleShardMapPut is PUT /v1/shard/map: install a newer map document.
// A stale epoch answers 409 stale_epoch with the installed epoch, so a
// lagging coordinator learns where the cluster actually is.
func (s *Server) handleShardMapPut(w http.ResponseWriter, r *http.Request) {
	if !s.shardConfigured(w) {
		return
	}
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	m, err := shard.ParseMap(body)
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "shard_map", Message: err.Error()})
		return
	}
	if err := s.shard.Install(m); err != nil {
		if errors.Is(err, shard.ErrStaleEpoch) {
			s.writeError(w, &apiError{
				Status:  http.StatusConflict,
				Code:    "stale_epoch",
				Message: err.Error(),
				Epoch:   s.shard.Epoch(),
			})
			return
		}
		s.writeError(w, mapError(err))
		return
	}
	s.syncShardOwned()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Installed bool  `json:"installed"`
		Epoch     int64 `json:"epoch"`
	}{Installed: true, Epoch: s.shard.Epoch()})
}

// handleShardPull is POST /v1/shard/pull {"subject": ..., "from": addr}:
// this node copies the subject's history from the peer into its own
// repository — the destination half of one migration. Idempotent.
func (s *Server) handleShardPull(w http.ResponseWriter, r *http.Request) {
	if !s.shardConfigured(w) || !s.repoConfigured(w) {
		return
	}
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	var req api.ShardPull
	if err := json.Unmarshal(body, &req); err != nil || req.Subject == "" || req.From == "" {
		s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "params", Message: "body must be {\"subject\": ..., \"from\": <peer base URL>}"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), shardPullTimeout)
	defer cancel()
	adopted, err := shard.Pull(ctx, shardHTTPClient, s.repo, req.From, req.Subject)
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusBadGateway, Code: "shard_pull", Message: err.Error()})
		return
	}
	s.shard.CountMigration()
	s.syncShardOwned()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Subject string `json:"subject"`
		Adopted int    `json:"adopted"`
	}{Subject: req.Subject, Adopted: adopted})
}

// shardRebalanceRequest is the body of POST /v1/shard/rebalance: the
// desired shard set (and optionally a new vnode count). Omitting
// shards keeps the current set — a data-repair resync.
type shardRebalanceRequest struct {
	Shards []shard.Shard `json:"shards"`
	VNodes int           `json:"vnodes,omitempty"`
}

// handleShardRebalance is POST /v1/shard/rebalance. The receiving node
// coordinates the whole protocol and answers once the final map is
// installed cluster-wide (or with the first error; re-POST to resume).
func (s *Server) handleShardRebalance(w http.ResponseWriter, r *http.Request) {
	if !s.shardConfigured(w) || !s.repoConfigured(w) {
		return
	}
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	var req shardRebalanceRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "params", Message: err.Error()})
			return
		}
	}
	cur := s.shard.Map()
	if len(req.Shards) == 0 {
		req.Shards = cur.Shards
	}
	if req.VNodes == 0 {
		req.VNodes = cur.VNodes
	}

	moved, epoch, err := s.rebalance(r.Context(), cur, req)
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusBadGateway, Code: "rebalance", Message: err.Error()})
		return
	}
	s.syncShardOwned()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Epoch int64    `json:"epoch"`
		Moved []string `json:"moved"`
	}{Epoch: epoch, Moved: moved})
}

// rebalance drives the two-epoch protocol: compute migrations against
// the target ring, push the migration map, pull every moving subject at
// its destination, push the clean map. Returns the moved subjects and
// the final epoch.
func (s *Server) rebalance(ctx context.Context, cur *shard.Map, req shardRebalanceRequest) (moved []string, epoch int64, err error) {
	// The target ring, before any migrations: where every subject must
	// end up.
	target, err := shard.NewMap(cur.Epoch+1, req.VNodes, req.Shards, nil)
	if err != nil {
		return nil, 0, err
	}

	// Enumerate the cluster's subjects from every node the current map
	// knows — shards and migration endpoints alike, so a half-moved
	// subject is found wherever its bytes are.
	subjects, err := s.shardSubjects(ctx, cur)
	if err != nil {
		return nil, 0, err
	}

	var migs []shard.Migration
	for _, subject := range subjects {
		from := cur.Route(subject).Owner
		to := target.Route(subject).Owner
		if from.ID == to.ID {
			continue
		}
		migs = append(migs, shard.Migration{
			Subject: subject,
			From:    from.ID, FromAddr: from.Addr,
			To: to.ID, ToAddr: to.Addr,
		})
		moved = append(moved, subject)
	}

	if len(migs) > 0 {
		migMap, err := shard.NewMap(cur.Epoch+1, req.VNodes, req.Shards, migs)
		if err != nil {
			return nil, 0, err
		}
		if err := s.pushMap(ctx, migMap, cur, req.Shards); err != nil {
			return nil, 0, err
		}
		for _, mg := range migs {
			if err := s.driveShardPull(ctx, mg); err != nil {
				return nil, 0, fmt.Errorf("migrating %s from %s to %s: %w (re-POST the rebalance to resume)", mg.Subject, mg.From, mg.To, err)
			}
		}
	}

	final, err := shard.NewMap(s.shard.Epoch()+1, req.VNodes, req.Shards, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := s.pushMap(ctx, final, cur, req.Shards); err != nil {
		return nil, 0, err
	}
	return moved, final.Epoch, nil
}

// shardSubjects unions the subject listings of every node the current
// map references and returns them sorted.
func (s *Server) shardSubjects(ctx context.Context, cur *shard.Map) ([]string, error) {
	seen := map[string]bool{}
	for _, addr := range shardAddrs(cur, nil) {
		if s.isSelfShardAddr(cur, addr) {
			for _, sub := range s.repo.Subjects() {
				seen[sub.Name] = true
			}
			continue
		}
		var listing []repo.SubjectInfo
		if err := shard.GetJSON(ctx, shardHTTPClient, addr+"/v1/repo/subjects", &listing); err != nil {
			return nil, fmt.Errorf("listing subjects of %s: %w", addr, err)
		}
		for _, e := range listing {
			seen[e.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// pushMap installs m on every node of both the old and the new
// topology (self included, locally). A peer already at or beyond the
// epoch with the same document acknowledges as a no-op; a peer ahead
// answers 409 stale_epoch, which is tolerated — a racing coordinator
// already moved the cluster past this step.
func (s *Server) pushMap(ctx context.Context, m *shard.Map, cur *shard.Map, next []shard.Shard) error {
	for _, addr := range shardAddrs(cur, next) {
		if s.isSelfShardAddr(cur, addr) {
			if err := s.shard.Install(m); err != nil && !errors.Is(err, shard.ErrStaleEpoch) {
				return fmt.Errorf("installing map epoch %d locally: %w", m.Epoch, err)
			}
			continue
		}
		if err := shard.PushMap(ctx, shardHTTPClient, m, addr); err != nil {
			return fmt.Errorf("pushing map epoch %d to %s: %w", m.Epoch, addr, err)
		}
	}
	return nil
}

// driveShardPull asks the destination to pull one subject. The
// coordinator may itself be the destination; then it pulls directly.
func (s *Server) driveShardPull(ctx context.Context, mg shard.Migration) error {
	if mg.To == s.shard.Self() {
		pullCtx, cancel := context.WithTimeout(ctx, shardPullTimeout)
		defer cancel()
		if _, err := shard.Pull(pullCtx, shardHTTPClient, s.repo, mg.FromAddr, mg.Subject); err != nil {
			return err
		}
		s.shard.CountMigration()
		return nil
	}
	body, _ := json.Marshal(api.ShardPull{Subject: mg.Subject, From: mg.FromAddr})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, mg.ToAddr+"/v1/shard/pull", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := shardHTTPClient.Do(req)
	if err != nil {
		return err
	}
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pull at %s: %s: %s", mg.ToAddr, resp.Status, strings.TrimSpace(string(snippet)))
	}
	return nil
}

// evacuateShard is the supervisor's evacuation hook: it reuses the
// crash-resumable two-epoch rebalance to move a dead (but readable —
// typically read-only) shard's subjects onto the survivors. The
// supervisor decides *when*; this decides *how*, exactly as a manual
// POST /v1/shard/rebalance onto the shrunk topology would.
func (s *Server) evacuateShard(ctx context.Context, survivors []shard.Shard, vnodes int) error {
	if s.repo == nil {
		return fmt.Errorf("evacuation needs a local repository")
	}
	_, _, err := s.rebalance(ctx, s.shard.Map(), shardRebalanceRequest{Shards: survivors, VNodes: vnodes})
	if err == nil {
		s.syncShardOwned()
	}
	return err
}

// handleShardHeal is POST /v1/shard/heal: probe every peer once and
// heal any that fails, immediately — the manual trigger of the same
// machinery the background supervisor runs on hysteresis. Answers 404
// supervise on nodes running without a supervisor.
func (s *Server) handleShardHeal(w http.ResponseWriter, r *http.Request) {
	if !s.shardConfigured(w) {
		return
	}
	if s.shardSup == nil {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: "supervise", Message: "this node does not run a shard supervisor (start ccserved with -shard-supervise)"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), shardPullTimeout)
	defer cancel()
	rep := s.shardSup.HealNow(ctx)
	s.syncShardOwned()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// shardListTimeout bounds one peer's subject listing in the aggregate
// fan-out.
const shardListTimeout = 10 * time.Second

// aggregateConcurrency bounds the fan-out.
const aggregateConcurrency = 8

// handleRepoAggregate is GET /v1/repo: the shard-aware aggregate
// subject listing. On a sharded node it fans out to every owner the
// installed map names (bounded concurrency) and merges the answers,
// keeping each subject's row from its authoritative owner only; owners
// that cannot be reached are listed in the partial-failure envelope
// instead of failing the whole listing. On an unsharded node it is the
// local listing in the same envelope.
func (s *Server) handleRepoAggregate(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	local := func(id string) []api.AggregateSubject {
		subs := s.repo.Subjects()
		out := make([]api.AggregateSubject, 0, len(subs))
		for _, sub := range subs {
			out = append(out, api.AggregateSubject{SubjectInfo: sub, Shard: id})
		}
		return out
	}
	envelope := api.Aggregate{Subjects: []api.AggregateSubject{}}

	if s.shard == nil {
		envelope.Subjects = local("")
		envelope.Shards, envelope.Reached = 1, 1
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(envelope)
		return
	}

	// The endpoints to ask: every shard of the map, plus migration
	// sources already off the shard list (their subjects are still
	// pinned to them until the move commits).
	m := s.shard.Map()
	type endpoint struct{ id, addr string }
	var eps []endpoint
	seen := map[string]bool{}
	for _, sh := range m.Shards {
		eps = append(eps, endpoint{sh.ID, sh.Addr})
		seen[sh.ID] = true
	}
	for _, mg := range m.Migrations {
		if !seen[mg.From] {
			seen[mg.From] = true
			eps = append(eps, endpoint{mg.From, mg.FromAddr})
		}
	}

	type answer struct {
		rows []api.AggregateSubject
		err  error
	}
	answers := make([]answer, len(eps))
	sem := make(chan struct{}, aggregateConcurrency)
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep endpoint) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if s.isSelfShardAddr(m, ep.addr) {
				answers[i] = answer{rows: local(ep.id)}
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), shardListTimeout)
			defer cancel()
			var listing []api.AggregateSubject
			if err := shard.GetJSON(ctx, shardHTTPClient, strings.TrimRight(ep.addr, "/")+"/v1/repo/subjects", &listing); err != nil {
				answers[i] = answer{err: err}
				return
			}
			for j := range listing {
				listing[j].Shard = ep.id
			}
			answers[i] = answer{rows: listing}
		}(i, ep)
	}
	wg.Wait()

	// Merge: a subject's row counts only when its reporting node is the
	// route-authoritative owner, so bytes left behind by a finished
	// migration (sources keep their history) never show up twice.
	byName := map[string]api.AggregateSubject{}
	for _, a := range answers {
		for _, row := range a.rows {
			if m.Route(row.Name).Owner.ID != row.Shard {
				continue
			}
			byName[row.Name] = row
		}
	}
	for _, row := range byName {
		envelope.Subjects = append(envelope.Subjects, row)
	}
	sort.Slice(envelope.Subjects, func(i, j int) bool { return envelope.Subjects[i].Name < envelope.Subjects[j].Name })
	envelope.Shards = len(eps)
	for i, a := range answers {
		if a.err != nil {
			envelope.Unreachable = append(envelope.Unreachable, api.UnreachableShard{ID: eps[i].id, Addr: eps[i].addr, Error: a.err.Error()})
		} else {
			envelope.Reached++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(envelope)
}

// shardAddrs unions the addresses of a map's shards, its migration
// endpoints, and an optional next shard set, deduplicated in a stable
// order.
func shardAddrs(cur *shard.Map, next []shard.Shard) []string {
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
	for _, sh := range cur.Shards {
		add(sh.Addr)
	}
	for _, mg := range cur.Migrations {
		add(mg.FromAddr)
		add(mg.ToAddr)
	}
	for _, sh := range next {
		add(sh.Addr)
	}
	return out
}

// isSelfShardAddr reports whether addr names this node under the
// current map (so the coordinator short-circuits HTTP to itself).
func (s *Server) isSelfShardAddr(cur *shard.Map, addr string) bool {
	self, ok := cur.Shard(s.shard.Self())
	return ok && strings.TrimRight(self.Addr, "/") == strings.TrimRight(addr, "/")
}
