package jobs

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/metrics"
)

// Config tunes a Manager.
type Config struct {
	// Workers is the size of the worker pool draining the item queue;
	// it is the admission bound for batch work (default 2).
	Workers int
	// Retention is how long finished jobs (and their result archives)
	// are kept before expiry; 0 keeps them forever.
	Retention time.Duration
	// SweepInterval is how often the retention sweeper runs (default 1m).
	SweepInterval time.Duration
	// Logf, when non-nil, receives operational log lines (WAL append
	// failures, expiry sweeps).
	Logf func(format string, args ...any)
}

// Manager owns the job subsystem: the durable store, the priority
// queue, the worker pool and the per-job event streams. All methods
// are safe for concurrent use.
type Manager struct {
	cfg   Config
	store *store
	exec  Executor

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*job
	expired   map[string]struct{}
	expireLog []string // tombstones in expiry order, for capping
	nextJob   int64
	queue     workHeap
	queueWake chan struct{}
	pending   int // queued (claimable) items, for the depth gauge
	closed    bool
	started   bool

	mSubmitted, mCompleted, mFailed, mCanceled, mExpired *metrics.Counter
	mItems, mItemFailures, mItemNanos                    *metrics.Counter
	gRunning, gQueueDepth                                *metrics.Gauge
}

// job is the in-memory state of one job. Fields are guarded by the
// manager's mutex except the event log (self-synchronized) and the
// per-job context.
type job struct {
	id          string
	seq         int64
	spec        Spec
	state       State
	submittedAt time.Time
	doneAt      time.Time
	items       []ItemState
	canceled    bool
	running     int // items currently executing
	ctx         context.Context
	cancelRun   context.CancelFunc
	events      *eventLog
}

func (j *job) counts() (done, failed int) {
	for i := range j.items {
		switch j.items[i].Status {
		case ItemDone:
			done++
		case ItemFailed, ItemCanceled:
			done++
			failed++
		}
	}
	// Failed counts items that will never produce a result; for the
	// Snapshot we separate true failures from cancellations.
	return done, failed
}

// workItem is one queue entry: a 0-based item of a job.
type workItem struct {
	j   *job
	idx int
}

// workHeap orders items: higher job priority first, then submission
// order, then item order — so equal-priority jobs run FIFO and a job's
// items start in spec order.
type workHeap []workItem

func (h workHeap) Len() int { return len(h) }
func (h workHeap) Less(a, b int) bool {
	if h[a].j.spec.Priority != h[b].j.spec.Priority {
		return h[a].j.spec.Priority > h[b].j.spec.Priority
	}
	if h[a].j.seq != h[b].j.seq {
		return h[a].j.seq < h[b].j.seq
	}
	return h[a].idx < h[b].idx
}
func (h workHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *workHeap) Push(x any)   { *h = append(*h, x.(workItem)) }
func (h *workHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// SubmitItem is one item of a submission: the model bytes plus the
// /v1/generate-equivalent options.
type SubmitItem struct {
	Name     string
	Model    []byte
	Library  string
	Root     string
	Style    string
	Annotate bool
	Target   string
	Profile  []byte
}

// Open recovers the durable job state from dir: the checkpoint, then
// the valid WAL prefix beyond it. Jobs that were interrupted (items
// without a durable completion record) re-enter the queue and resume
// once Start is called.
func Open(dir string, cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = time.Minute
	}
	st, cp, replay, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		store:     st,
		ctx:       ctx,
		cancel:    cancel,
		jobs:      map[string]*job{},
		expired:   map[string]struct{}{},
		queueWake: make(chan struct{}),
	}
	m.Instrument(metrics.NewRegistry())
	if err := m.recover(cp, replay); err != nil {
		st.close()
		cancel()
		return nil, err
	}
	return m, nil
}

// Instrument registers the manager's metrics on mx. Call before Start.
func (m *Manager) Instrument(mx *metrics.Registry) {
	m.mSubmitted = mx.Counter("jobs_submitted_total", "Jobs accepted.")
	m.mCompleted = mx.Counter("jobs_completed_total", "Jobs that completed successfully.")
	m.mFailed = mx.Counter("jobs_failed_total", "Jobs that settled with at least one failed item.")
	m.mCanceled = mx.Counter("jobs_canceled_total", "Jobs canceled before completion.")
	m.mExpired = mx.Counter("jobs_expired_total", "Finished jobs removed by retention.")
	m.mItems = mx.Counter("jobs_items_total", "Batch items executed to a durable outcome.")
	m.mItemFailures = mx.Counter("jobs_item_failures_total", "Batch items that failed.")
	m.mItemNanos = mx.Counter("jobs_item_ns_total", "Cumulative item execution time in nanoseconds.")
	m.gRunning = mx.Gauge("jobs_running", "Jobs currently in the running state.")
	m.gQueueDepth = mx.Gauge("jobs_queue_depth", "Batch items waiting in the queue.")
}

// SetExecutor installs the function that runs one item — the serving
// layer's generation pipeline. Must be called before Start.
func (m *Manager) SetExecutor(fn Executor) { m.exec = fn }

// Start launches the worker pool and the retention sweeper.
func (m *Manager) Start() {
	if m.exec == nil {
		panic("jobs: Start without SetExecutor")
	}
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.cfg.Retention > 0 {
		m.wg.Add(1)
		go m.sweeper()
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// recover rebuilds the in-memory state: checkpointed jobs, replayed
// WAL records, condensed event logs, and the work queue for everything
// still unfinished.
func (m *Manager) recover(cp *checkpointDoc, replay []durable.Entry[*record]) error {
	for _, id := range cp.Expired {
		m.expired[id] = struct{}{}
		m.expireLog = append(m.expireLog, id)
	}
	m.nextJob = cp.NextJob
	if m.nextJob < 1 {
		m.nextJob = 1 // job sequence numbers are 1-based
	}
	for i := range cp.Jobs {
		pj := &cp.Jobs[i]
		j := &job{
			id:          pj.ID,
			seq:         pj.Seq,
			spec:        pj.Spec,
			state:       pj.State,
			submittedAt: time.Unix(0, pj.SubmittedAt),
			events:      newEventLog(),
		}
		if pj.DoneAt != 0 {
			j.doneAt = time.Unix(0, pj.DoneAt)
		}
		j.canceled = pj.State == Canceled
		if len(pj.Items) != len(pj.Spec.Items) {
			return fmt.Errorf("jobs: checkpoint job %s: %d item states for %d items", pj.ID, len(pj.Items), len(pj.Spec.Items))
		}
		j.items = make([]ItemState, len(pj.Items))
		for k, pi := range pj.Items {
			st := pi.Status
			if !st.terminal() {
				st = ItemPending
			}
			j.items[k] = ItemState{
				Spec:      pj.Spec.Items[k],
				Status:    st,
				ResultSHA: pi.SHA,
				Error:     pi.Error,
				Nanos:     pi.Nanos,
			}
		}
		m.jobs[pj.ID] = j
		if j.seq >= m.nextJob {
			m.nextJob = j.seq + 1
		}
	}

	for _, e := range replay {
		rec, j := e.Rec, m.jobs[e.Rec.Job]
		switch rec.Op {
		case opSubmit:
			if j != nil {
				return fmt.Errorf("jobs: WAL replays submit for existing job %s", rec.Job)
			}
			nj := &job{
				id:          rec.Job,
				seq:         rec.JobSeq,
				spec:        *rec.Spec,
				state:       Queued,
				submittedAt: time.Unix(0, rec.At),
				events:      newEventLog(),
			}
			nj.items = make([]ItemState, len(rec.Spec.Items))
			for k := range rec.Spec.Items {
				nj.items[k] = ItemState{Spec: rec.Spec.Items[k], Status: ItemPending}
			}
			m.jobs[rec.Job] = nj
			if nj.seq >= m.nextJob {
				m.nextJob = nj.seq + 1
			}
		case opItemDone:
			if j == nil || rec.Item > len(j.items) {
				return fmt.Errorf("jobs: WAL item_done for unknown job/item %s/%d", rec.Job, rec.Item)
			}
			it := &j.items[rec.Item-1]
			it.Status = ItemDone
			it.ResultSHA = rec.SHA
			it.Error = ""
			it.Nanos = rec.Nanos
		case opItemFailed:
			if j == nil || rec.Item > len(j.items) {
				return fmt.Errorf("jobs: WAL item_failed for unknown job/item %s/%d", rec.Job, rec.Item)
			}
			it := &j.items[rec.Item-1]
			it.Status = ItemFailed
			it.Error = rec.Msg
			it.Nanos = rec.Nanos
		case opDone:
			if j == nil {
				return fmt.Errorf("jobs: WAL done for unknown job %s", rec.Job)
			}
			j.state = rec.State
			j.doneAt = time.Unix(0, rec.At)
		case opCancel:
			if j == nil {
				return fmt.Errorf("jobs: WAL cancel for unknown job %s", rec.Job)
			}
			j.canceled = true
		case opExpire:
			delete(m.jobs, rec.Job)
			m.tombstoneLocked(rec.Job)
		}
	}

	running := int64(0)
	for _, j := range m.jobs {
		// A durable cancel without a durable done settles the job as
		// canceled; items that never completed are canceled with it.
		if j.canceled && !j.state.Terminal() {
			for k := range j.items {
				if !j.items[k].Status.terminal() {
					j.items[k].Status = ItemCanceled
				}
			}
			j.state = Canceled
			j.doneAt = time.Now()
		}
		if !j.state.Terminal() {
			allDone := true
			anyFailed := false
			anySettled := false
			for k := range j.items {
				switch j.items[k].Status {
				case ItemDone:
					anySettled = true
				case ItemFailed, ItemCanceled:
					anySettled = true
					anyFailed = true
				default:
					allDone = false
				}
			}
			switch {
			case allDone && anyFailed:
				j.state = Failed
				j.doneAt = time.Now()
			case allDone:
				j.state = Completed
				j.doneAt = time.Now()
			case anySettled:
				j.state = Running
				running++
			default:
				j.state = Queued
			}
		}
		// Re-queue the unfinished remainder.
		if !j.state.Terminal() {
			j.ctx, j.cancelRun = context.WithCancel(m.ctx)
			for k := range j.items {
				if j.items[k].Status == ItemPending {
					heap.Push(&m.queue, workItem{j: j, idx: k})
					m.pending++
				}
			}
		}
		m.rebuildEvents(j)
	}
	m.gRunning.Set(running)
	m.gQueueDepth.Set(int64(m.pending))
	return nil
}

// rebuildEvents condenses a recovered job's durable history into its
// fresh event log: the queued event, one event per settled item, and
// either the terminal event or a resumed marker. IDs restart at 1; a
// client resuming with a stale Last-Event-ID replays the whole log.
func (m *Manager) rebuildEvents(j *job) {
	total := len(j.items)
	j.events.append(Event{Type: EventQueued, Job: j.id, State: Queued, Total: total})
	done, failed := 0, 0
	for k := range j.items {
		it := &j.items[k]
		switch it.Status {
		case ItemDone:
			done++
			j.events.append(Event{Type: EventItemDone, Job: j.id, Item: k + 1, ItemName: it.Spec.Name, State: j.state, Done: done, Failed: failed, Total: total})
		case ItemFailed, ItemCanceled:
			done++
			failed++
			j.events.append(Event{Type: EventItemFailed, Job: j.id, Item: k + 1, ItemName: it.Spec.Name, Msg: it.Error, State: j.state, Done: done, Failed: failed, Total: total})
		}
	}
	if j.state.Terminal() {
		j.events.append(Event{Type: EventTerminal, Job: j.id, State: j.state, Done: done, Failed: failed, Total: total})
	} else {
		j.events.append(Event{Type: EventResumed, Job: j.id, State: j.state, Done: done, Failed: failed, Total: total})
	}
}

// Submit accepts a batch: model blobs first (durable before anything
// references them), then one fsync'd WAL record, then the queue push.
// The returned snapshot carries the assigned job ID.
func (m *Manager) Submit(name string, priority int, items []SubmitItem) (*Snapshot, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("jobs: empty submission")
	}
	specs := make([]ItemSpec, len(items))
	for i, it := range items {
		sha, err := m.store.putBlob(it.Model)
		if err != nil {
			return nil, err
		}
		specs[i] = ItemSpec{
			Name:     it.Name,
			ModelSHA: sha,
			Library:  it.Library,
			Root:     it.Root,
			Style:    it.Style,
			Annotate: it.Annotate,
			Target:   it.Target,
			Profile:  it.Profile,
		}
	}
	spec := Spec{Name: name, Priority: priority, Items: specs}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	seq := m.nextJob
	id := jobID(seq)
	now := time.Now()
	if err := m.store.append(&record{Op: opSubmit, Job: id, JobSeq: seq, Spec: &spec, At: now.UnixNano()}); err != nil {
		return nil, err
	}
	m.nextJob = seq + 1
	j := &job{
		id:          id,
		seq:         seq,
		spec:        spec,
		state:       Queued,
		submittedAt: now,
		events:      newEventLog(),
	}
	j.ctx, j.cancelRun = context.WithCancel(m.ctx)
	j.items = make([]ItemState, len(specs))
	for k := range specs {
		j.items[k] = ItemState{Spec: specs[k], Status: ItemPending}
		heap.Push(&m.queue, workItem{j: j, idx: k})
		m.pending++
	}
	m.jobs[id] = j
	m.mSubmitted.Inc()
	m.gQueueDepth.Set(int64(m.pending))
	j.events.append(Event{Type: EventQueued, Job: id, State: Queued, Total: len(specs)})
	m.wakeLocked()
	return m.snapshotLocked(j), nil
}

// wakeLocked signals every blocked worker that the queue changed.
func (m *Manager) wakeLocked() {
	close(m.queueWake)
	m.queueWake = make(chan struct{})
}

// worker drains the queue until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		wi, ok := m.next()
		if !ok {
			return
		}
		m.runItem(wi)
	}
}

// next claims the highest-priority pending item, blocking while the
// queue is empty. ok=false means the manager is shutting down.
func (m *Manager) next() (workItem, bool) {
	for {
		m.mu.Lock()
		if m.ctx.Err() != nil {
			m.mu.Unlock()
			return workItem{}, false
		}
		for m.queue.Len() > 0 {
			wi := heap.Pop(&m.queue).(workItem)
			m.pending--
			m.gQueueDepth.Set(int64(m.pending))
			if wi.j.items[wi.idx].Status != ItemPending {
				continue // canceled while queued
			}
			wi.j.items[wi.idx].Status = ItemRunning
			wi.j.running++
			if wi.j.state == Queued {
				wi.j.state = Running
				m.gRunning.Inc()
			}
			m.mu.Unlock()
			return wi, true
		}
		wake := m.queueWake
		m.mu.Unlock()
		select {
		case <-wake:
		case <-m.ctx.Done():
			return workItem{}, false
		}
	}
}

// runItem executes one claimed item through the executor and commits
// its outcome.
func (m *Manager) runItem(wi workItem) {
	j, idx := wi.j, wi.idx
	item := j.items[idx].Spec
	total := len(j.items)

	m.mu.Lock()
	done, failed := j.counts()
	m.mu.Unlock()
	j.events.append(Event{Type: EventItemStarted, Job: j.id, Item: idx + 1, ItemName: item.Name, State: Running, Done: done, Failed: failed, Total: total})

	start := time.Now()
	model, err := m.store.blob(item.ModelSHA)
	var zip []byte
	if err == nil {
		zip, err = m.exec(j.ctx, item, model, func(msg string) {
			j.events.append(Event{Type: EventStatus, Job: j.id, Item: idx + 1, ItemName: item.Name, Msg: msg, State: Running, Done: done, Failed: failed, Total: total})
		})
	}
	elapsed := time.Since(start).Nanoseconds()

	var sha string
	if err == nil {
		sha, err = m.store.putBlob(zip)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	j.running--
	it := &j.items[idx]

	switch {
	case err == nil:
		if werr := m.store.append(&record{Op: opItemDone, Job: j.id, Item: idx + 1, SHA: sha, Nanos: elapsed}); werr != nil {
			m.logf("jobs: WAL append (item_done %s/%d): %v", j.id, idx+1, werr)
		}
		it.Status = ItemDone
		it.ResultSHA = sha
		it.Nanos = elapsed
		m.mItems.Inc()
		m.mItemNanos.Add(elapsed)
		d, f := j.counts()
		j.events.append(Event{Type: EventItemDone, Job: j.id, Item: idx + 1, ItemName: item.Name, State: j.state, Done: d, Failed: f, Total: total})

	case m.ctx.Err() != nil && !j.canceled:
		// Shutdown, not cancellation: leave no durable trace so the item
		// re-enters the queue when the store is reopened.
		it.Status = ItemPending
		return

	case j.canceled:
		// The durable cancel record already covers this item.
		it.Status = ItemCanceled
		it.Nanos = elapsed

	default:
		if werr := m.store.append(&record{Op: opItemFailed, Job: j.id, Item: idx + 1, Msg: err.Error(), Nanos: elapsed}); werr != nil {
			m.logf("jobs: WAL append (item_failed %s/%d): %v", j.id, idx+1, werr)
		}
		it.Status = ItemFailed
		it.Error = err.Error()
		it.Nanos = elapsed
		m.mItems.Inc()
		m.mItemFailures.Inc()
		m.mItemNanos.Add(elapsed)
		d, f := j.counts()
		j.events.append(Event{Type: EventItemFailed, Job: j.id, Item: idx + 1, ItemName: item.Name, Msg: it.Error, State: j.state, Done: d, Failed: f, Total: total})
	}

	m.maybeFinalizeLocked(j)
}

// maybeFinalizeLocked settles the job once every item is terminal and
// no worker still holds one.
func (m *Manager) maybeFinalizeLocked(j *job) {
	if j.state.Terminal() || j.running > 0 {
		return
	}
	anyFailed := false
	for k := range j.items {
		if !j.items[k].Status.terminal() {
			return
		}
		if j.items[k].Status != ItemDone {
			anyFailed = true
		}
	}
	wasRunning := j.state == Running
	switch {
	case j.canceled:
		j.state = Canceled
		m.mCanceled.Inc()
	case anyFailed:
		j.state = Failed
		m.mFailed.Inc()
	default:
		j.state = Completed
		m.mCompleted.Inc()
	}
	j.doneAt = time.Now()
	if wasRunning {
		m.gRunning.Dec()
	}
	if j.cancelRun != nil {
		j.cancelRun()
	}
	if err := m.store.append(&record{Op: opDone, Job: j.id, State: j.state, At: j.doneAt.UnixNano()}); err != nil {
		m.logf("jobs: WAL append (done %s): %v", j.id, err)
	}
	done, failed := j.counts()
	j.events.append(Event{Type: EventTerminal, Job: j.id, State: j.state, Done: done, Failed: failed, Total: len(j.items)})
}

// lookupLocked resolves an ID to a live job, distinguishing expired
// from never-existed.
func (m *Manager) lookupLocked(id string) (*job, error) {
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	if _, ok := m.expired[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExpired, id)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

func (m *Manager) snapshotLocked(j *job) *Snapshot {
	s := &Snapshot{
		ID:          j.id,
		Seq:         j.seq,
		Spec:        j.spec,
		State:       j.state,
		SubmittedAt: j.submittedAt,
		DoneAt:      j.doneAt,
		Items:       append([]ItemState(nil), j.items...),
	}
	for k := range j.items {
		switch j.items[k].Status {
		case ItemDone:
			s.Done++
		case ItemFailed, ItemCanceled:
			s.Done++
			s.FailedItems++
		}
	}
	return s
}

// Get returns a point-in-time snapshot of one job.
func (m *Manager) Get(id string) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	return m.snapshotLocked(j), nil
}

// List returns snapshots of every live job in submission order.
func (m *Manager) List() []*Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.snapshotLocked(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Cancel stops a job: queued items are canceled immediately, running
// items get their context canceled and settle as canceled when their
// executor returns. Canceling a settled job returns ErrFinished.
func (m *Manager) Cancel(id string) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	if j.state.Terminal() {
		return nil, fmt.Errorf("%w: %s is %s", ErrFinished, id, j.state)
	}
	j.canceled = true
	if err := m.store.append(&record{Op: opCancel, Job: id}); err != nil {
		m.logf("jobs: WAL append (cancel %s): %v", id, err)
	}
	for k := range j.items {
		if j.items[k].Status == ItemPending {
			j.items[k].Status = ItemCanceled
		}
	}
	if j.cancelRun != nil {
		j.cancelRun()
	}
	m.maybeFinalizeLocked(j)
	return m.snapshotLocked(j), nil
}

// Wait returns the job's events with ID greater than after, blocking
// until at least one is available, the stream ends, ctx is done, or
// extraDone (may be nil) closes. The returned bool reports stream end —
// the terminal event has been delivered.
func (m *Manager) Wait(ctx context.Context, id string, after int64, extraDone <-chan struct{}) ([]Event, bool, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	m.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return j.events.wait(ctx, after, extraDone)
}

// Result returns every item archive of a completed job. A job that has
// not completed — still in flight, failed, or canceled — answers
// ErrNotFinished.
func (m *Manager) Result(id string) ([]ItemResult, *Snapshot, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	if err != nil {
		m.mu.Unlock()
		return nil, nil, err
	}
	if j.state != Completed {
		st := j.state
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, st)
	}
	snap := m.snapshotLocked(j)
	m.mu.Unlock()

	out := make([]ItemResult, len(snap.Items))
	for k := range snap.Items {
		zip, err := m.store.blob(snap.Items[k].ResultSHA)
		if err != nil {
			return nil, nil, err
		}
		out[k] = ItemResult{Name: snap.Items[k].Spec.Name, Index: k + 1, Zip: zip}
	}
	return out, snap, nil
}

// ResultItem returns one finished item's archive regardless of the
// job's overall state — partial results of a failed batch stay
// fetchable.
func (m *Manager) ResultItem(id string, n int) (*ItemResult, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if n < 1 || n > len(j.items) {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s has no item %d", ErrNotFound, id, n)
	}
	it := j.items[n-1]
	m.mu.Unlock()
	if it.Status != ItemDone {
		return nil, fmt.Errorf("%w: item %d of %s is %s", ErrNotFinished, n, id, it.Status)
	}
	zip, err := m.store.blob(it.ResultSHA)
	if err != nil {
		return nil, err
	}
	return &ItemResult{Name: it.Spec.Name, Index: n, Zip: zip}, nil
}

// Stats is the healthz-facing summary.
type Stats struct {
	Jobs       int `json:"jobs"`
	Running    int `json:"running"`
	QueueDepth int `json:"queueDepth"`
	Workers    int `json:"workers"`
}

// Stats returns the live queue summary.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	running := 0
	for _, j := range m.jobs {
		if j.state == Running {
			running++
		}
	}
	return Stats{Jobs: len(m.jobs), Running: running, QueueDepth: m.pending, Workers: m.cfg.Workers}
}

// sweeper expires finished jobs past the retention window.
func (m *Manager) sweeper() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sweep(time.Now())
		case <-m.ctx.Done():
			return
		}
	}
}

// ExpireNow forces a retention sweep as of the given instant — an
// operational and test hook; the periodic sweeper calls the same path.
func (m *Manager) ExpireNow(now time.Time) { m.sweep(now) }

// sweep expires every finished job whose terminal time is older than
// the retention window, releasing blobs no live job still references.
func (m *Manager) sweep(now time.Time) {
	if m.cfg.Retention <= 0 {
		return
	}
	cutoff := now.Add(-m.cfg.Retention)
	m.mu.Lock()
	defer m.mu.Unlock()
	var victims []*job
	for _, j := range m.jobs {
		if j.state.Terminal() && !j.doneAt.IsZero() && j.doneAt.Before(cutoff) {
			victims = append(victims, j)
		}
	}
	if len(victims) == 0 {
		return
	}
	for _, j := range victims {
		if err := m.store.append(&record{Op: opExpire, Job: j.id}); err != nil {
			m.logf("jobs: WAL append (expire %s): %v", j.id, err)
			continue
		}
		delete(m.jobs, j.id)
		m.tombstoneLocked(j.id)
		m.mExpired.Inc()
	}
	// Release blobs owned only by expired jobs: anything still
	// referenced by a live job (models are shared by content) survives.
	live := map[string]struct{}{}
	for _, j := range m.jobs {
		for k := range j.items {
			live[j.items[k].Spec.ModelSHA] = struct{}{}
			if j.items[k].ResultSHA != "" {
				live[j.items[k].ResultSHA] = struct{}{}
			}
		}
	}
	for _, j := range victims {
		if _, ok := m.jobs[j.id]; ok {
			continue // expire record failed; job still live
		}
		for k := range j.items {
			if _, ok := live[j.items[k].Spec.ModelSHA]; !ok {
				m.store.removeBlob(j.items[k].Spec.ModelSHA)
			}
			if sha := j.items[k].ResultSHA; sha != "" {
				if _, ok := live[sha]; !ok {
					m.store.removeBlob(sha)
				}
			}
		}
		m.logf("jobs: expired %s (finished %s)", j.id, j.doneAt.Format(time.RFC3339))
	}
}

// tombstoneLocked records an expired ID, keeping the tombstone list
// bounded.
func (m *Manager) tombstoneLocked(id string) {
	if _, ok := m.expired[id]; ok {
		return
	}
	m.expired[id] = struct{}{}
	m.expireLog = append(m.expireLog, id)
	for len(m.expireLog) > maxTombstones {
		delete(m.expired, m.expireLog[0])
		m.expireLog = m.expireLog[1:]
	}
}

// checkpointLocked compacts the durable state into jobs.json. Running
// items persist as pending: on reopen they re-enter the queue.
func (m *Manager) checkpointLocked() error {
	doc := &checkpointDoc{NextJob: m.nextJob, Expired: append([]string(nil), m.expireLog...)}
	ids := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		ids = append(ids, j)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].seq < ids[b].seq })
	for _, j := range ids {
		pj := persistedJob{
			ID:          j.id,
			Seq:         j.seq,
			Spec:        j.spec,
			State:       j.state,
			SubmittedAt: j.submittedAt.UnixNano(),
		}
		if !j.state.Terminal() {
			// Non-terminal states are reconstructed from the item states
			// on reopen.
			pj.State = Queued
		}
		if !j.doneAt.IsZero() {
			pj.DoneAt = j.doneAt.UnixNano()
		}
		pj.Items = make([]persistedItem, len(j.items))
		for k := range j.items {
			st := j.items[k].Status
			if !st.terminal() {
				st = ItemPending
			}
			pj.Items[k] = persistedItem{Status: st, SHA: j.items[k].ResultSHA, Error: j.items[k].Error, Nanos: j.items[k].Nanos}
		}
		doc.Jobs = append(doc.Jobs, pj)
	}
	return m.store.checkpoint(doc)
}

// Close shuts the subsystem down gracefully: no new submissions,
// running executors canceled, workers drained (bounded by ctx), then
// one compacting checkpoint so the reopened manager starts from a
// clean log. Interrupted items hold no durable completion record and
// resume after reopen.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	m.cancel()
	drained := make(chan struct{})
	go func() { m.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown interrupted: %w", ctx.Err())
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.checkpointLocked()
	if cerr := m.store.close(); err == nil {
		err = cerr
	}
	return err
}

// Kill simulates a crash for tests: workers stop and the store closes
// with no checkpoint — recovery must come entirely from the WAL and the
// last checkpoint on disk.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
	m.store.close()
}
