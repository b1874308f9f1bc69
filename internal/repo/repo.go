// Package repo is a crash-safe, disk-backed, versioned repository of
// published schema sets — the persistence the paper's "standardization
// and harmonization process" needs: business libraries are revised over
// time and the derived XSD artifacts must stay consistent across
// revisions. A subject (one named pipeline of a business library,
// typically its baseURN) holds an append-only sequence of versions;
// each version records the canonicalized XMI input, the generation
// options fingerprint, the full generated schema set and its
// diagnostics, all stored as content-addressed blobs shared across
// versions (an unchanged schema costs no new bytes).
//
// Publishing a new version runs the model comparison of internal/diff
// against the previous version and enforces the subject's compatibility
// policy: under PolicyBackward a revision with breaking changes
// (removed or retyped components, tightened cardinalities, removed
// literals) is rejected with a structured *CompatError; under
// PolicyNone everything publishes. Deletions tombstone a version —
// the number is never reused and the sequence stays auditable.
//
// Durability follows the write-ahead discipline of the schema writer:
// blobs are fsync'd before the WAL record that references them, the WAL
// is fsync'd before the in-memory state advances, and the manifest
// checkpoint is an fsync'd temp-file+rename. Reopening after a crash —
// including one that tore the WAL tail mid-record — recovers exactly
// the versions whose publish had completed. Concurrent publishes to one
// subject are serialized; reads are lock-free snapshots.
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/go-ccts/ccts/internal/contentaddr"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/diff"
	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/health"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/xmi"
)

// Policy is a subject's compatibility gate for new versions.
type Policy string

const (
	// PolicyNone accepts every revision.
	PolicyNone Policy = "none"
	// PolicyBackward rejects revisions whose diff against the previous
	// version contains breaking changes (diff.Change.Breaking).
	PolicyBackward Policy = "backward"
)

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyNone, PolicyBackward:
		return Policy(s), nil
	}
	return "", fmt.Errorf("repo: unknown compatibility policy %q (want %q or %q)", s, PolicyNone, PolicyBackward)
}

// FileRef names one schema document of a version and the blob holding
// its bytes.
type FileRef struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Version is one published schema set. Versions are immutable once
// published; Deleted marks a tombstone (the content may be reclaimed by
// GC, the metadata and number remain).
type Version struct {
	// Number is 1-based and strictly increasing per subject; tombstoned
	// numbers are never reused.
	Number int `json:"number"`
	// InputSHA256 addresses the canonicalized XMI the version was
	// generated from.
	InputSHA256 string `json:"inputSha256"`
	InputSize   int64  `json:"inputSize"`
	// Fingerprint is the generation-options part of the content address
	// (library, root, style, annotation — everything that changes the
	// output).
	Fingerprint string `json:"fingerprint,omitempty"`
	// RootElement is the selected root element for DOCLibrary runs.
	RootElement string `json:"rootElement,omitempty"`
	// Files lists the schema documents in generation order.
	Files []FileRef `json:"files"`
	// DiagnosticsSHA256 addresses the serialized diagnostics report.
	DiagnosticsSHA256 string `json:"diagnosticsSha256,omitempty"`
	DiagnosticsSize   int64  `json:"diagnosticsSize,omitempty"`
	// Deleted marks a tombstone.
	Deleted bool `json:"deleted,omitempty"`
}

// File is one named schema document to publish.
type File struct {
	Name string
	Data []byte
}

// PublishRequest is the input to Publish. The caller provides the
// already-generated schema set; the repository stores it and gates it.
type PublishRequest struct {
	// Subject names the pipeline (typically the library's baseURN).
	Subject string
	// Input is the XMI document the schemas were generated from; it is
	// canonicalized (contentaddr.Canonicalize) before storage.
	Input []byte
	// Fingerprint is the generation-options fingerprint.
	Fingerprint string
	// RootElement, for DOCLibrary runs, names the chosen root.
	RootElement string
	// Files is the generated schema set in generation order.
	Files []File
	// Diagnostics is the serialized diagnostics report, optional.
	Diagnostics []byte
	// Policy, when non-empty, sets the subject's compatibility policy
	// as of this publish; empty inherits the subject's current policy
	// (or the repository default for a new subject).
	Policy Policy
	// Model is the imported model of Input, when the caller already has
	// it; nil makes the repository import Input itself for the
	// compatibility diff. A committed publish keeps the model as the
	// subject's compatibility base, shared read-only with concurrent
	// gates, so the caller must not modify it afterwards.
	Model *core.Model
}

// CompatError reports a publish rejected by the subject's policy.
type CompatError struct {
	Subject string
	// Against is the version number the revision was compared with.
	Against int
	Policy  Policy
	// Report is the full model diff; Report.Breaking() holds the
	// changes that caused the rejection.
	Report *diff.Report
}

// Error summarizes the rejection.
func (e *CompatError) Error() string {
	return fmt.Sprintf("repo: publish to subject %q rejected by %s policy: %d breaking change(s) against version %d",
		e.Subject, e.Policy, len(e.Report.Breaking()), e.Against)
}

// Sentinel errors.
var (
	// ErrNotFound reports an unknown subject or version number.
	ErrNotFound = errors.New("repo: not found")
	// ErrDeleted reports access to a tombstoned version.
	ErrDeleted = errors.New("repo: version deleted")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("repo: closed")
	// ErrWAL reports a write-ahead log this process could not repair
	// after a failed append; a checkpoint, a snapshot install or
	// reopening the repository recovers it.
	ErrWAL = errors.New("repo: write-ahead log unusable; reopen the repository")
)

// Config tunes a repository.
type Config struct {
	// DefaultPolicy applies to subjects created without an explicit
	// policy; empty means PolicyBackward (the safe default for a
	// harmonization pipeline).
	DefaultPolicy Policy
	// Limits bounds the XMI imports the compatibility gate performs;
	// the zero value means limits.Default() (limits.Unlimited() disables
	// them).
	Limits limits.Limits
	// CheckpointEvery is the number of WAL records between manifest
	// checkpoints; 0 means 64. Checkpoints compact the WAL.
	CheckpointEvery int
	// ReplTail is how many committed WAL frames the repository retains
	// in memory for replication (WALTail); 0 means 1024. The tail
	// survives manifest checkpoints so a lagging follower rides through
	// WAL compaction without re-bootstrapping.
	ReplTail int
	// Health, when non-nil, couples the repository to the process's
	// degradation state machine: every WAL, manifest and blob write
	// fault is reported to it, successful commits feed its recovery
	// hysteresis, and Publish/Delete refuse with health.ErrReadOnly
	// while it is in read-only mode (reads are unaffected).
	Health *health.Tracker
	// FaultWAL, FaultManifest and FaultBlob interpose on the
	// corresponding write streams of this repository instance. They are
	// fault-injection seams for tests (chaos soaks flip them mid-run via
	// faultio.Injector); leave nil in production.
	FaultWAL      func(io.Writer) io.Writer
	FaultManifest func(io.Writer) io.Writer
	FaultBlob     func(io.Writer) io.Writer
}

// subjectState is the immutable per-subject snapshot; commits replace
// the whole struct, readers never see partial updates.
type subjectState struct {
	name     string
	policy   Policy
	versions []Version // ascending Number
}

// latestLive returns the newest non-tombstoned version, or nil.
func (s *subjectState) latestLive() *Version {
	for i := len(s.versions) - 1; i >= 0; i-- {
		if !s.versions[i].Deleted {
			return &s.versions[i]
		}
	}
	return nil
}

func (s *subjectState) find(number int) *Version {
	for i := range s.versions {
		if s.versions[i].Number == number {
			return &s.versions[i]
		}
	}
	return nil
}

// state is the repository-wide immutable snapshot.
type state struct {
	subjects map[string]*subjectState
}

// clone prepares a copy-on-write mutation of one subject: the map is
// copied, the target subject (if present) gets a fresh struct with a
// copied versions slice, every other subject is shared.
func (st *state) clone(subject string) *state {
	out := &state{subjects: make(map[string]*subjectState, len(st.subjects)+1)}
	for k, v := range st.subjects {
		out.subjects[k] = v
	}
	if sub, ok := out.subjects[subject]; ok {
		cp := &subjectState{name: sub.name, policy: sub.policy}
		cp.versions = make([]Version, len(sub.versions))
		copy(cp.versions, sub.versions)
		out.subjects[subject] = cp
	}
	return out
}

// apply folds one WAL record into the state (which must be private to
// the caller: a recovery build or a clone). Recovery and live commits
// share this single code path so a replayed log always reproduces the
// live process's state.
func (st *state) apply(rec *walRecord) error {
	sub := st.subjects[rec.Subject]
	switch rec.Op {
	case opPublish:
		if sub == nil {
			sub = &subjectState{name: rec.Subject, policy: rec.Policy}
			st.subjects[rec.Subject] = sub
		}
		if rec.Policy != "" {
			sub.policy = rec.Policy
		}
		if last := len(sub.versions); last > 0 && rec.Version.Number <= sub.versions[last-1].Number {
			return fmt.Errorf("repo: WAL publish %s/%d out of order", rec.Subject, rec.Version.Number)
		}
		sub.versions = append(sub.versions, *rec.Version)
	case opDelete:
		if sub == nil {
			return fmt.Errorf("repo: WAL delete for unknown subject %q", rec.Subject)
		}
		v := sub.find(rec.Number)
		if v == nil {
			return fmt.Errorf("repo: WAL delete for unknown version %s/%d", rec.Subject, rec.Number)
		}
		v.Deleted = true
	default:
		return fmt.Errorf("repo: unknown WAL op %q", rec.Op)
	}
	return nil
}

// Repo is the repository handle. Create with Open; all methods are safe
// for concurrent use.
type Repo struct {
	dir             string
	defaultPolicy   Policy
	lim             limits.Limits
	checkpointEvery int
	health          *health.Tracker

	// Per-instance fault seams (Config.Fault*); the package-level
	// wrap*Writer vars remain as the in-package test hooks.
	fWAL, fManifest, fBlob func(io.Writer) io.Writer

	// stateP is the lock-free read snapshot.
	stateP atomic.Pointer[state]

	// mu guards the WAL, sequence numbers, checkpoint counter, the
	// replication tail, the subject-lock table and the closed flag.
	mu       sync.Mutex
	wal      *durable.Log
	walSeq   int64
	sinceCkp int
	closed   bool
	subLocks map[string]*sync.Mutex

	// Replication state: tail holds the encoded frames for sequence
	// numbers [tailStart, walSeq], capped at replTail and retained
	// across checkpoints; commitCh is closed (and renewed) on every
	// commit so replication streams can long-poll for new frames.
	replTail  int
	tailStart int64
	tail      [][]byte
	commitCh  chan struct{}

	// gcMu lets publishes (readers) overlap each other while GC
	// (writer) gets exclusivity over the blob store.
	gcMu sync.RWMutex

	// blobs is the content-addressed store; blobMu serializes its writes
	// and the counters below.
	blobs     durable.Blobs
	blobMu    sync.Mutex
	blobCount int64
	blobBytes int64

	// bases memoises each subject's compatibility base (compatbase.go).
	bases compatBases

	publishes  atomic.Int64
	rejections atomic.Int64
	deletes    atomic.Int64
	baseHits   atomic.Int64
	baseMisses atomic.Int64

	// Optional instruments; nil until Instrument is called.
	mSubjects, mVersions, mBlobs, mBlobBytes, mLogicalBytes   *metrics.Gauge
	mPublishes, mRejections, mDeletes, mBaseHits, mBaseMisses *metrics.Counter
}

// Open loads (or initializes) the repository at dir: abandoned temp
// files are removed, the manifest snapshot is loaded, the WAL's valid
// prefix is replayed on top of it (a torn or corrupt tail is truncated
// away), and the blob store is inventoried.
func Open(dir string, cfg Config) (*Repo, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, fmt.Errorf("repo: creating %s: %w", dir, err)
	}
	if err := durable.SweepTemp(dir); err != nil {
		return nil, fmt.Errorf("repo: cleaning temp files: %w", err)
	}

	r := &Repo{
		dir:             dir,
		blobs:           durable.Blobs(filepath.Join(dir, blobDirName)),
		defaultPolicy:   cfg.DefaultPolicy,
		lim:             cfg.Limits.OrDefault(),
		checkpointEvery: cfg.CheckpointEvery,
		health:          cfg.Health,
		fWAL:            cfg.FaultWAL,
		fManifest:       cfg.FaultManifest,
		fBlob:           cfg.FaultBlob,
		subLocks:        map[string]*sync.Mutex{},
	}
	if r.defaultPolicy == "" {
		r.defaultPolicy = PolicyBackward
	}
	if _, err := ParsePolicy(string(r.defaultPolicy)); err != nil {
		return nil, err
	}
	if r.checkpointEvery <= 0 {
		r.checkpointEvery = 64
	}
	r.replTail = cfg.ReplTail
	if r.replTail <= 0 {
		r.replTail = 1024
	}
	r.commitCh = make(chan struct{})

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &state{subjects: map[string]*subjectState{}}
	for _, ms := range man.Subjects {
		versions := make([]Version, len(ms.Versions))
		copy(versions, ms.Versions)
		st.subjects[ms.Name] = &subjectState{name: ms.Name, policy: ms.Policy, versions: versions}
	}
	wal, replay, err := durable.OpenLog(filepath.Join(dir, walName), man.WALSeq, decodeRecord)
	if err != nil {
		return nil, fmt.Errorf("repo: recovering WAL: %w", err)
	}
	for i, e := range replay {
		if err := st.apply(e.Rec); err != nil {
			wal.Close()
			return nil, err
		}
		// The replication tail keeps the newest replayed frames as scanned.
		if i >= len(replay)-r.replTail {
			r.tail = append(r.tail, e.Frame)
		}
	}
	r.walSeq = man.WALSeq + int64(len(replay))
	r.tailStart = r.walSeq + 1 - int64(len(r.tail))
	r.wal = wal

	err = r.blobs.Walk(func(_ string, size int64) error {
		r.blobCount++
		r.blobBytes += size
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("repo: scanning blob store: %w", err)
	}

	r.stateP.Store(st)
	return r, nil
}

// Close checkpoints the manifest (best-effort) and closes the WAL.
// Close is idempotent and safe concurrently with any other method
// (including an in-flight Checkpoint — both serialize on the commit
// lock); the repository must not be used afterwards. Replication
// long-pollers blocked in WALTail waits are woken.
func (r *Repo) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	ckpErr := r.checkpointLocked()
	closeErr := r.wal.Close()
	if r.commitCh != nil {
		close(r.commitCh)
		r.commitCh = nil
	}
	if ckpErr != nil {
		return ckpErr
	}
	return closeErr
}

// Instrument registers the repository's gauges and counters with a
// metrics registry under the repo_* names.
func (r *Repo) Instrument(reg *metrics.Registry) {
	r.mSubjects = reg.Gauge("repo_subjects", "Subjects in the schema repository.")
	r.mVersions = reg.Gauge("repo_versions", "Live (non-tombstoned) versions in the schema repository.")
	r.mBlobs = reg.Gauge("repo_blobs", "Content-addressed blobs resident in the repository store.")
	r.mBlobBytes = reg.Gauge("repo_blob_bytes", "Bytes resident in the repository blob store.")
	r.mLogicalBytes = reg.Gauge("repo_logical_bytes", "Bytes all live versions would occupy without blob sharing.")
	r.mPublishes = reg.Counter("repo_publishes_total", "Versions published to the repository.")
	r.mBaseHits = reg.Counter("repo_compat_base_hits_total", "Compatibility gates that diffed against the subject's memoised base model.")
	r.mBaseMisses = reg.Counter("repo_compat_base_misses_total", "Compatibility gates that re-imported the previous version's stored input.")
	r.mRejections = reg.Counter("repo_publish_rejected_total", "Publishes rejected by a compatibility policy.")
	r.mDeletes = reg.Counter("repo_deletes_total", "Versions tombstoned.")
	r.mPublishes.Add(r.publishes.Load())
	r.mRejections.Add(r.rejections.Load())
	r.mDeletes.Add(r.deletes.Load())
	r.mBaseHits.Add(r.baseHits.Load())
	r.mBaseMisses.Add(r.baseMisses.Load())
	r.syncMetrics()
}

// syncMetrics refreshes the gauges from the current snapshot.
func (r *Repo) syncMetrics() {
	if r.mSubjects == nil {
		return
	}
	st := r.Stats()
	r.mSubjects.Set(int64(st.Subjects))
	r.mVersions.Set(int64(st.Versions))
	r.mBlobs.Set(st.Blobs)
	r.mBlobBytes.Set(st.BlobBytes)
	r.mLogicalBytes.Set(st.LogicalBytes)
}

// reportFault feeds a write-path failure to the health tracker: the
// repository flips the process to read-only mode rather than letting
// every subsequent publish rediscover the broken disk.
func (r *Repo) reportFault(err error) {
	if r.health != nil && err != nil {
		r.health.ReportWriteFault(err)
	}
}

// reportWriteOK feeds a durable commit to the recovery hysteresis.
func (r *Repo) reportWriteOK() {
	if r.health != nil {
		r.health.ReportWriteOK()
	}
}

// writesAllowed guards the mutation entry points while degraded
// operation is active.
func (r *Repo) writesAllowed() error {
	if r.health != nil && !r.health.AllowWrites() {
		return fmt.Errorf("repo: %w (reason: %s)", health.ErrReadOnly, r.health.Reason())
	}
	return nil
}

// subjectLock returns the mutex serializing mutations of one subject.
func (r *Repo) subjectLock(subject string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.subLocks[subject]
	if !ok {
		l = &sync.Mutex{}
		r.subLocks[subject] = l
	}
	return l
}

// Publish gates, stores and commits one new version of a subject. On a
// policy violation it returns a *CompatError carrying the full diff
// report and stores nothing. The returned Version is the committed
// record (durable before return).
func (r *Repo) Publish(req PublishRequest) (*Version, error) {
	if req.Subject == "" {
		return nil, errors.New("repo: publish needs a subject")
	}
	if len(req.Files) == 0 {
		return nil, errors.New("repo: publish needs at least one schema file")
	}
	if req.Policy != "" {
		if _, err := ParsePolicy(string(req.Policy)); err != nil {
			return nil, err
		}
	}
	if err := r.writesAllowed(); err != nil {
		return nil, err
	}
	canon := contentaddr.Canonicalize(req.Input)

	// Publishes hold the GC read-lock across blob writes and the WAL
	// commit so the collector can never reclaim blobs referenced by a
	// publish that is about to commit.
	r.gcMu.RLock()
	defer r.gcMu.RUnlock()

	lock := r.subjectLock(req.Subject)
	lock.Lock()
	defer lock.Unlock()

	st := r.stateP.Load()
	sub := st.subjects[req.Subject]
	policy := r.defaultPolicy
	if sub != nil {
		policy = sub.policy
	}
	if req.Policy != "" {
		policy = req.Policy
	}

	var prev *Version
	if sub != nil {
		prev = sub.latestLive()
	}
	model := req.Model
	if prev != nil && policy == PolicyBackward {
		report, revision, err := r.compatReport(req.Subject, prev, canon, req.Model)
		if err != nil {
			return nil, err
		}
		model = revision
		if len(report.Breaking()) > 0 {
			r.rejections.Add(1)
			if r.mRejections != nil {
				r.mRejections.Inc()
			}
			return nil, &CompatError{Subject: req.Subject, Against: prev.Number, Policy: policy, Report: report}
		}
	}

	v := Version{
		Number:      1,
		InputSize:   int64(len(canon)),
		Fingerprint: req.Fingerprint,
		RootElement: req.RootElement,
	}
	if sub != nil && len(sub.versions) > 0 {
		v.Number = sub.versions[len(sub.versions)-1].Number + 1
	}

	// Blob writes precede the WAL record that references them; each
	// blob is fsync'd, so a durable record implies durable content.
	var err error
	if v.InputSHA256, err = r.PutBlob(canon); err != nil {
		return nil, err
	}
	for _, f := range req.Files {
		sha, err := r.PutBlob(f.Data)
		if err != nil {
			return nil, err
		}
		v.Files = append(v.Files, FileRef{Name: f.Name, SHA256: sha, Size: int64(len(f.Data))})
	}
	if len(req.Diagnostics) > 0 {
		if v.DiagnosticsSHA256, err = r.PutBlob(req.Diagnostics); err != nil {
			return nil, err
		}
		v.DiagnosticsSize = int64(len(req.Diagnostics))
	}

	rec := &walRecord{Op: opPublish, Subject: req.Subject, Policy: policy, Version: &v}
	if err := r.commit(rec); err != nil {
		return nil, err
	}
	if model != nil {
		r.bases.put(req.Subject, v.InputSHA256, v.InputSize, model)
	}
	r.publishes.Add(1)
	if r.mPublishes != nil {
		r.mPublishes.Inc()
	}
	r.syncMetrics()
	return &v, nil
}

// compatReport diffs subject's previous version prev against the
// revision canon. The previous model comes from the memo when it holds
// prev's input, else from re-importing the stored input, which then
// becomes the memoised base. The revision's model is newModel, or canon
// imported when nil; it is returned for Publish to memoise once the
// revision commits.
func (r *Repo) compatReport(subject string, prev *Version, canon []byte, newModel *core.Model) (*diff.Report, *core.Model, error) {
	oldModel := r.bases.get(subject, prev.InputSHA256)
	if oldModel != nil {
		r.baseHits.Add(1)
		if r.mBaseHits != nil {
			r.mBaseHits.Inc()
		}
	} else {
		r.baseMisses.Add(1)
		if r.mBaseMisses != nil {
			r.mBaseMisses.Inc()
		}
		oldData, err := r.Blob(prev.InputSHA256)
		if err != nil {
			return nil, nil, fmt.Errorf("repo: loading version %d input: %w", prev.Number, err)
		}
		if oldModel, err = r.importModel(oldData); err != nil {
			return nil, nil, fmt.Errorf("repo: reimporting version %d input: %w", prev.Number, err)
		}
		r.bases.put(subject, prev.InputSHA256, prev.InputSize, oldModel)
	}
	if newModel == nil {
		var err error
		if newModel, err = r.importModel(canon); err != nil {
			return nil, nil, fmt.Errorf("repo: importing revision: %w", err)
		}
	}
	return diff.Compare(oldModel, newModel), newModel, nil
}

// importModel runs the hardened XMI import and profile extraction.
func (r *Repo) importModel(data []byte) (*core.Model, error) {
	um, _, err := xmi.ImportBytes(data, xmi.ImportOptions{Limits: r.lim})
	if err != nil {
		return nil, err
	}
	return profile.Extract(um)
}

// Check is the dry-run form of the compatibility gate: it reports
// whether publishing input to subject would pass, without storing
// anything. An unknown subject is always compatible (the publish would
// create it).
func (r *Repo) Check(subject string, input []byte, model *core.Model) (*CompatResult, error) {
	if subject == "" {
		return nil, errors.New("repo: check needs a subject")
	}
	canon := contentaddr.Canonicalize(input)
	st := r.stateP.Load()
	sub := st.subjects[subject]
	policy := r.defaultPolicy
	if sub != nil {
		policy = sub.policy
	}
	res := &CompatResult{Subject: subject, Policy: policy, Compatible: true}
	var prev *Version
	if sub != nil {
		prev = sub.latestLive()
	}
	if prev == nil {
		// Still validate that the input imports: a dry run should fail
		// where the publish would.
		if model == nil {
			if _, err := r.importModel(canon); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	report, _, err := r.compatReport(subject, prev, canon, model)
	if err != nil {
		return nil, err
	}
	res.Against = prev.Number
	res.Report = report
	res.Compatible = policy != PolicyBackward || len(report.Breaking()) == 0
	return res, nil
}

// CompatResult is the outcome of a dry-run compatibility check.
type CompatResult struct {
	Subject string
	Policy  Policy
	// Against is the version compared with; 0 when the subject has no
	// live versions (first publish, always compatible).
	Against    int
	Compatible bool
	// Report is the full diff (nil when Against is 0).
	Report *diff.Report
}

// Delete tombstones one version: its metadata and number remain, reads
// of it answer ErrDeleted, and GC may reclaim blobs only it referenced.
func (r *Repo) Delete(subject string, number int) error {
	if err := r.writesAllowed(); err != nil {
		return err
	}
	lock := r.subjectLock(subject)
	lock.Lock()
	defer lock.Unlock()

	st := r.stateP.Load()
	sub := st.subjects[subject]
	if sub == nil {
		return fmt.Errorf("%w: subject %q", ErrNotFound, subject)
	}
	v := sub.find(number)
	if v == nil {
		return fmt.Errorf("%w: version %s/%d", ErrNotFound, subject, number)
	}
	if v.Deleted {
		return fmt.Errorf("%w: version %s/%d", ErrDeleted, subject, number)
	}
	if err := r.commit(&walRecord{Op: opDelete, Subject: subject, Number: number}); err != nil {
		return err
	}
	if v == sub.latestLive() {
		r.bases.drop(subject)
	}
	r.deletes.Add(1)
	if r.mDeletes != nil {
		r.mDeletes.Inc()
	}
	r.syncMetrics()
	return nil
}

// commit appends one record to the WAL (fsync'd) and only then swaps in
// the new state snapshot. A failed append is rolled back; if even that
// fails every later mutation returns ErrWAL until a checkpoint, a
// snapshot install or a reopen empties the log.
func (r *Repo) commit(rec *walRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	rec.Seq = r.walSeq + 1
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	next := r.stateP.Load().clone(rec.Subject)
	if err := next.apply(rec); err != nil {
		// A local record the state cannot absorb is a programming error,
		// not a runtime condition (replicated frames go through
		// ApplyFrame, which treats the same failure as divergence).
		panic(err)
	}
	return r.commitLocked(rec.Seq, line, next)
}

// commitLocked makes one already-validated frame durable and visible:
// the line is appended to the WAL and fsync'd (durable.Log.Append rolls
// a failed append back), then the prepared state snapshot is published,
// the replication tail advances and long-pollers are woken. Shared by
// local commits and replicated ApplyFrame so both paths have identical
// durability. r.mu held; seq must be r.walSeq+1 and next must already
// reflect the frame.
func (r *Repo) commitLocked(seq int64, line []byte, next *state) error {
	if err := r.wal.Append(line, seam(r.fWAL, wrapWALWriter)); err != nil {
		if errors.Is(err, durable.ErrBroken) {
			return ErrWAL
		}
		r.reportFault(err)
		return fmt.Errorf("repo: %w", err)
	}
	r.walSeq = seq
	r.stateP.Store(next)
	r.appendTailLocked(line)

	r.reportWriteOK()
	r.sinceCkp++
	if r.sinceCkp >= r.checkpointEvery {
		// Best-effort: a failed checkpoint leaves the records in the
		// WAL, and the next commit retries.
		if err := r.checkpointLocked(); err == nil {
			r.sinceCkp = 0
		}
	}
	return nil
}

// appendTailLocked records one committed frame in the replication tail
// (trimmed to the retention cap) and wakes long-polling streams. The
// tail keeps line, which must not change afterwards. r.mu held.
func (r *Repo) appendTailLocked(line []byte) {
	r.tail = append(r.tail, line)
	if drop := len(r.tail) - r.replTail; drop > 0 {
		kept := make([][]byte, len(r.tail)-drop)
		copy(kept, r.tail[drop:])
		r.tail = kept
		r.tailStart += int64(drop)
	}
	if r.commitCh != nil {
		close(r.commitCh)
		r.commitCh = make(chan struct{})
	}
}

// seam resolves a fault seam: the per-instance Config seam wins, then
// the package-level test hook.
func seam(cfg, hook func(io.Writer) io.Writer) func(io.Writer) io.Writer {
	if cfg != nil {
		return cfg
	}
	return hook
}

// Checkpoint compacts the log: the current state is written as the
// manifest (atomic, fsync'd) and the WAL is emptied. Also called
// automatically every CheckpointEvery records and on Close.
func (r *Repo) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if err := r.checkpointLocked(); err != nil {
		return err
	}
	r.sinceCkp = 0
	return nil
}

// buildManifestLocked snapshots the current state in manifest form,
// covering WAL records through r.walSeq; r.mu held.
func (r *Repo) buildManifestLocked() manifest {
	st := r.stateP.Load()
	man := manifest{Format: manifestFormat, WALSeq: r.walSeq}
	names := make([]string, 0, len(st.subjects))
	for name := range st.subjects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sub := st.subjects[name]
		man.Subjects = append(man.Subjects, manifestSubject{Name: sub.name, Policy: sub.policy, Versions: sub.versions})
	}
	return man
}

// checkpointLocked writes the manifest and truncates the WAL; the
// in-memory replication tail is retained so followers keep streaming
// across compactions. r.mu held.
func (r *Repo) checkpointLocked() error {
	man := r.buildManifestLocked()
	data, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("repo: encoding manifest: %w", err)
	}
	if err := durable.WriteFile(manifestPath(r.dir), data, seam(r.fManifest, wrapManifestWriter)); err != nil {
		r.reportFault(err)
		return fmt.Errorf("repo: writing manifest: %w", err)
	}
	// The manifest now covers every WAL record; empty the log. A crash
	// before the reset is safe: recovery skips records with
	// Seq <= manifest.WALSeq.
	if err := r.wal.Reset(); err != nil {
		return fmt.Errorf("repo: compacting WAL: %w", err)
	}
	return nil
}

// PutBlob stores data in the content-addressed blob store (fsync'd,
// idempotent) and returns its address: the write half of Publish and
// the follower half of snapshot bootstrap and frame application.
// Callers fetching by address should verify the returned sum matches
// the one requested. New blobs are durable before the store's counters
// advance.
func (r *Repo) PutBlob(data []byte) (string, error) {
	sha := contentaddr.BlobSum(data)
	r.blobMu.Lock()
	defer r.blobMu.Unlock()
	created, err := r.blobs.Put(sha, data, seam(r.fBlob, wrapBlobWriter))
	if err != nil {
		r.reportFault(err)
		return "", fmt.Errorf("repo: storing blob: %w", err)
	}
	if created {
		r.blobCount++
		r.blobBytes += int64(len(data))
	}
	return sha, nil
}

// Blob returns the bytes stored under a content address, verifying them
// against it (a mismatch means on-disk corruption).
func (r *Repo) Blob(sha string) ([]byte, error) {
	if len(sha) != 64 {
		return nil, fmt.Errorf("%w: blob %q", ErrNotFound, sha)
	}
	data, err := os.ReadFile(r.blobs.Path(sha))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: blob %s", ErrNotFound, sha)
	}
	if err != nil {
		return nil, fmt.Errorf("repo: reading blob %s: %w", sha, err)
	}
	if contentaddr.BlobSum(data) != sha {
		return nil, fmt.Errorf("repo: blob %s corrupt on disk", sha)
	}
	return data, nil
}

// SubjectInfo summarizes one subject for listings.
type SubjectInfo struct {
	Name   string `json:"name"`
	Policy Policy `json:"policy"`
	// Versions counts live versions; Latest is the newest live number
	// (0 when all are tombstoned).
	Versions int `json:"versions"`
	Latest   int `json:"latest"`
}

// Subjects lists every subject, sorted by name.
func (r *Repo) Subjects() []SubjectInfo {
	st := r.stateP.Load()
	out := make([]SubjectInfo, 0, len(st.subjects))
	for _, sub := range st.subjects {
		info := SubjectInfo{Name: sub.name, Policy: sub.policy}
		for i := range sub.versions {
			if !sub.versions[i].Deleted {
				info.Versions++
				info.Latest = sub.versions[i].Number
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Policy returns a subject's compatibility policy.
func (r *Repo) Policy(subject string) (Policy, error) {
	sub := r.stateP.Load().subjects[subject]
	if sub == nil {
		return "", fmt.Errorf("%w: subject %q", ErrNotFound, subject)
	}
	return sub.policy, nil
}

// Versions returns a subject's full version sequence (tombstones
// included, marked Deleted) in ascending order.
func (r *Repo) Versions(subject string) ([]Version, error) {
	sub := r.stateP.Load().subjects[subject]
	if sub == nil {
		return nil, fmt.Errorf("%w: subject %q", ErrNotFound, subject)
	}
	out := make([]Version, len(sub.versions))
	copy(out, sub.versions)
	return out, nil
}

// Version returns one version's metadata. Tombstoned versions answer
// ErrDeleted; number 0 means the latest live version.
func (r *Repo) Version(subject string, number int) (Version, error) {
	sub := r.stateP.Load().subjects[subject]
	if sub == nil {
		return Version{}, fmt.Errorf("%w: subject %q", ErrNotFound, subject)
	}
	if number == 0 {
		if v := sub.latestLive(); v != nil {
			return *v, nil
		}
		return Version{}, fmt.Errorf("%w: subject %q has no live versions", ErrNotFound, subject)
	}
	v := sub.find(number)
	if v == nil {
		return Version{}, fmt.Errorf("%w: version %s/%d", ErrNotFound, subject, number)
	}
	if v.Deleted {
		return Version{}, fmt.Errorf("%w: version %s/%d", ErrDeleted, subject, number)
	}
	return *v, nil
}

// VersionFile returns the bytes of one named schema file of a version.
func (r *Repo) VersionFile(subject string, number int, name string) ([]byte, error) {
	v, err := r.Version(subject, number)
	if err != nil {
		return nil, err
	}
	for _, f := range v.Files {
		if f.Name == name {
			return r.Blob(f.SHA256)
		}
	}
	return nil, fmt.Errorf("%w: file %q in version %s/%d", ErrNotFound, name, subject, v.Number)
}

// Stats is a point-in-time snapshot of repository occupancy.
type Stats struct {
	// Subjects counts subjects; Versions counts live versions across
	// them; Deleted counts tombstones.
	Subjects int
	Versions int
	Deleted  int
	// Blobs and BlobBytes describe the physical store; LogicalBytes is
	// what live versions would occupy without content-address sharing.
	Blobs        int64
	BlobBytes    int64
	LogicalBytes int64
	// Publishes, Rejections and Deletes count lifetime operations of
	// this process.
	Publishes  int64
	Rejections int64
	Deletes    int64
}

// DedupRatio is logical over physical bytes: 1.0 means no sharing, 2.0
// means versions share half their content.
func (s Stats) DedupRatio() float64 {
	if s.BlobBytes == 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.BlobBytes)
}

// Stats computes the current snapshot.
func (r *Repo) Stats() Stats {
	st := r.stateP.Load()
	out := Stats{
		Subjects:   len(st.subjects),
		Publishes:  r.publishes.Load(),
		Rejections: r.rejections.Load(),
		Deletes:    r.deletes.Load(),
	}
	for _, sub := range st.subjects {
		for i := range sub.versions {
			v := &sub.versions[i]
			if v.Deleted {
				out.Deleted++
				continue
			}
			out.Versions++
			out.LogicalBytes += v.InputSize + v.DiagnosticsSize
			for _, f := range v.Files {
				out.LogicalBytes += f.Size
			}
		}
	}
	r.blobMu.Lock()
	out.Blobs, out.BlobBytes = r.blobCount, r.blobBytes
	r.blobMu.Unlock()
	return out
}

// GCResult reports what a collection reclaimed.
type GCResult struct {
	Blobs int64
	Bytes int64
}

// GC removes blobs referenced by no live version — orphans from crashed
// publishes and content only tombstoned versions used. It excludes
// publishers for its duration.
func (r *Repo) GC() (GCResult, error) {
	r.gcMu.Lock()
	defer r.gcMu.Unlock()

	st := r.stateP.Load()
	live := map[string]bool{}
	for _, sub := range st.subjects {
		for i := range sub.versions {
			v := &sub.versions[i]
			if v.Deleted {
				continue
			}
			live[v.InputSHA256] = true
			if v.DiagnosticsSHA256 != "" {
				live[v.DiagnosticsSHA256] = true
			}
			for _, f := range v.Files {
				live[f.SHA256] = true
			}
		}
	}

	var res GCResult
	r.blobMu.Lock()
	defer r.blobMu.Unlock()
	err := r.blobs.Walk(func(sha string, size int64) error {
		if live[sha] {
			return nil
		}
		if err := os.Remove(r.blobs.Path(sha)); err != nil {
			return fmt.Errorf("removing blob %s: %w", sha, err)
		}
		res.Blobs++
		res.Bytes += size
		r.blobCount--
		r.blobBytes -= size
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("repo: collecting blobs: %w", err)
	}
	r.syncMetricsAfterGC()
	return res, nil
}

// syncMetricsAfterGC refreshes gauges without re-taking blobMu.
func (r *Repo) syncMetricsAfterGC() {
	if r.mBlobs == nil {
		return
	}
	r.mBlobs.Set(r.blobCount)
	r.mBlobBytes.Set(r.blobBytes)
}
