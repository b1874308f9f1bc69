package repo

// Replication support. The repository's durability discipline — a
// CRC-framed WAL with contiguous sequence numbers ahead of an fsync'd
// manifest checkpoint — doubles as a replication log: a primary ships
// committed frames byte-for-byte to followers, which append them to
// their own WAL and fold them through the same state-transition code
// path as local commits (state.apply), so a follower's snapshot is the
// primary's snapshot.
//
// The primary side keeps an in-memory tail of recently committed
// frames (Config.ReplTail) that survives checkpoints, so a follower
// that lags a little rides through WAL compaction; one that lags past
// the tail gets ErrSeqGap and re-bootstraps from a snapshot
// (SnapshotManifest + the blobs it references, resuming the stream
// from the snapshot's WALSeq).
//
// The follower side is three calls: PutBlob stores fetched content,
// InstallSnapshot replaces the whole state with a primary snapshot,
// and ApplyFrame verifies (CRC, sequence continuity, blob presence,
// state consistency) and commits one shipped frame. A frame that fails
// verification is divergence — the caller discards local state and
// re-bootstraps rather than guessing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/go-ccts/ccts/internal/durable"
)

// Replication sentinels.
var (
	// ErrSeqGap reports a replication position the primary can no longer
	// serve linearly (behind the retained tail, or ahead of the log —
	// a diverged pair). The follower must re-bootstrap from a snapshot.
	ErrSeqGap = errors.New("repo: replication sequence gap")
	// ErrBadFrame reports a replicated WAL frame that failed CRC or
	// structural validation — divergence, not a transient fault.
	ErrBadFrame = errors.New("repo: replication frame corrupt")
	// ErrMissingBlob reports a publish frame whose content blobs are not
	// in the local store; fetch and PutBlob them before ApplyFrame.
	ErrMissingBlob = errors.New("repo: replication frame references a blob missing from the local store")
	// ErrDiverged reports a frame that decoded cleanly but conflicts
	// with the local state (e.g. an out-of-order version number): the
	// follower's history is not a prefix of the primary's.
	ErrDiverged = errors.New("repo: replicated frame conflicts with local state")
)

// Frame is the decoded metadata view of one replicated WAL frame —
// what a follower needs to prepare for ApplyFrame without knowing the
// record encoding.
type Frame struct {
	Seq     int64
	Op      string
	Subject string
	// Blobs lists the content addresses a publish frame references
	// (input, schema files, diagnostics); they must be resident locally
	// before the frame can be applied.
	Blobs []string
}

// DecodeFrame parses one CRC-framed WAL line (with or without its
// trailing newline). A frame that fails CRC or structural validation
// answers ErrBadFrame.
func DecodeFrame(line []byte) (*Frame, error) {
	rec, ok := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
	if !ok {
		return nil, ErrBadFrame
	}
	f := &Frame{Seq: rec.Seq, Op: rec.Op, Subject: rec.Subject}
	// Tombstones (adopted deleted versions) carry metadata only; their
	// content may be long reclaimed at the source, so a follower must
	// not try to fetch it.
	if rec.Op == opPublish && !rec.Version.Deleted {
		f.Blobs = versionBlobs(rec.Version)
	}
	return f, nil
}

// versionBlobs lists the content addresses one version references.
func versionBlobs(v *Version) []string {
	blobs := make([]string, 0, len(v.Files)+2)
	blobs = append(blobs, v.InputSHA256)
	for _, fr := range v.Files {
		blobs = append(blobs, fr.SHA256)
	}
	if v.DiagnosticsSHA256 != "" {
		blobs = append(blobs, v.DiagnosticsSHA256)
	}
	return blobs
}

// WALSeq returns the sequence number of the last committed record.
func (r *Repo) WALSeq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.walSeq
}

// WALTail returns up to max committed frames with sequence numbers
// beyond from, each a complete CRC-framed line including its newline —
// concatenating them reproduces the primary's WAL bytes. The returned
// channel is closed on the next commit (or on Close), so a caller that
// got no frames can wait for more. A position the tail no longer
// covers, or one beyond the log, answers ErrSeqGap: the follower must
// re-bootstrap from a snapshot.
func (r *Repo) WALTail(from int64, max int) (frames [][]byte, notify <-chan struct{}, err error) {
	if max <= 0 {
		max = 256
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, ErrClosed
	}
	if from > r.walSeq || from+1 < r.tailStart {
		return nil, nil, fmt.Errorf("%w: from %d, retained [%d, %d]", ErrSeqGap, from, r.tailStart, r.walSeq)
	}
	lo := int(from + 1 - r.tailStart)
	hi := len(r.tail)
	if hi-lo > max {
		hi = lo + max
	}
	if lo < hi {
		frames = make([][]byte, hi-lo)
		copy(frames, r.tail[lo:hi])
	}
	return frames, r.commitCh, nil
}

// SnapshotManifest serializes the current state in the manifest format
// together with the WAL sequence number it covers — the bootstrap
// payload for a new follower. The pair is taken under the commit lock,
// so resuming the stream from walSeq+1 observes every later record
// exactly once.
func (r *Repo) SnapshotManifest() (data []byte, walSeq int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrClosed
	}
	man := r.buildManifestLocked()
	data, err = json.Marshal(man)
	if err != nil {
		return nil, 0, fmt.Errorf("repo: encoding snapshot manifest: %w", err)
	}
	return data, r.walSeq, nil
}

// SnapshotBlobs parses a snapshot manifest and returns the WAL
// sequence it covers plus the deduplicated content addresses its live
// versions reference — the fetch list for a bootstrapping follower
// (tombstoned versions keep their metadata but need no content).
func SnapshotBlobs(data []byte) (walSeq int64, blobs []string, err error) {
	man, err := parseManifest(data)
	if err != nil {
		return 0, nil, err
	}
	seen := map[string]bool{}
	for _, sub := range man.Subjects {
		for i := range sub.Versions {
			v := &sub.Versions[i]
			if v.Deleted {
				continue
			}
			for _, sha := range versionBlobs(v) {
				if !seen[sha] {
					seen[sha] = true
					blobs = append(blobs, sha)
				}
			}
		}
	}
	return man.WALSeq, blobs, nil
}

// InstallSnapshot replaces the repository's entire state with a
// primary's snapshot manifest: the manifest is written atomically, the
// local WAL is emptied, and the replication position becomes the
// snapshot's WALSeq. Every blob a live version references must already
// be resident (PutBlob); a missing one fails the install before any
// state changes. Concurrent readers cut over atomically from the old
// state to the new.
func (r *Repo) InstallSnapshot(data []byte) error {
	man, err := parseManifest(data)
	if err != nil {
		return err
	}
	st := &state{subjects: map[string]*subjectState{}}
	for _, ms := range man.Subjects {
		versions := make([]Version, len(ms.Versions))
		copy(versions, ms.Versions)
		st.subjects[ms.Name] = &subjectState{name: ms.Name, policy: ms.Policy, versions: versions}
		for i := range versions {
			if versions[i].Deleted {
				continue
			}
			for _, sha := range versionBlobs(&versions[i]) {
				if !r.HasBlob(sha) {
					return fmt.Errorf("%w: %s (version %s/%d)", ErrMissingBlob, sha, ms.Name, versions[i].Number)
				}
			}
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if err := durable.WriteFile(manifestPath(r.dir), data, seam(r.fManifest, wrapManifestWriter)); err != nil {
		r.reportFault(err)
		return fmt.Errorf("repo: writing snapshot manifest: %w", err)
	}
	// Resetting the log also makes a poisoned one usable again.
	if err := r.wal.Reset(); err != nil {
		return fmt.Errorf("repo: resetting WAL for snapshot: %w", err)
	}
	r.walSeq = man.WALSeq
	r.sinceCkp = 0
	r.tail = nil
	r.tailStart = man.WALSeq + 1
	r.stateP.Store(st)
	if r.commitCh != nil {
		close(r.commitCh)
		r.commitCh = make(chan struct{})
	}
	return nil
}

// ApplyFrame verifies and commits one replicated WAL frame: the CRC
// and structure must hold (ErrBadFrame), the sequence must continue
// the local log (ErrSeqGap; a frame at or below the local position is
// acknowledged without effect, so re-delivery is idempotent), every
// referenced blob must be resident (ErrMissingBlob), and the record
// must fold cleanly into the local state (ErrDiverged). The frame is
// appended to the local WAL byte-for-byte as shipped and fsync'd
// before it becomes visible, so a restarted follower resumes from
// exactly the frames it acknowledged.
func (r *Repo) ApplyFrame(line []byte) (seq int64, err error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	rec, ok := decodeLine(line)
	if !ok {
		return 0, ErrBadFrame
	}
	if rec.Op == opPublish && !rec.Version.Deleted {
		for _, sha := range versionBlobs(rec.Version) {
			if !r.HasBlob(sha) {
				return 0, fmt.Errorf("%w: %s (frame %d)", ErrMissingBlob, sha, rec.Seq)
			}
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	if rec.Seq <= r.walSeq {
		return r.walSeq, nil // re-delivered frame: already applied
	}
	if rec.Seq != r.walSeq+1 {
		return 0, fmt.Errorf("%w: have %d, frame %d", ErrSeqGap, r.walSeq, rec.Seq)
	}
	next := r.stateP.Load().clone(rec.Subject)
	if aerr := next.apply(rec); aerr != nil {
		return 0, fmt.Errorf("%w: %v", ErrDiverged, aerr)
	}
	framed := make([]byte, 0, len(line)+1)
	framed = append(framed, line...)
	framed = append(framed, '\n')
	if err := r.commitLocked(rec.Seq, framed, next); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// HasBlob reports whether a content address is resident locally.
func (r *Repo) HasBlob(sha string) bool {
	if len(sha) != 64 {
		return false
	}
	_, err := os.Stat(r.blobs.Path(sha))
	return err == nil
}
