package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/go-ccts/ccts/internal/contentaddr"
	"github.com/go-ccts/ccts/internal/durable"
)

// On-disk layout under the job directory, written through the
// internal/durable kernel that the schema repository also runs on:
//
//	jobs.json              checkpoint: every live job's durable state
//	                       plus the expiry tombstones (durable.WriteFile)
//	jobs.wal               append-only records since the checkpoint,
//	                       one JSON payload per frame (durable.Log)
//	blobs/<p>/<sha256>     content-addressed store for model inputs and
//	                       result archives, p = first two hex digits
//	                       (durable.Blobs)
//
// Every record is fsync'd before the in-memory state advances, blobs
// are durable before any record references them, and recovery replays
// the records durable.OpenLog keeps above the checkpoint's watermark.

const (
	walName        = "jobs.wal"
	checkpointName = "jobs.json"
	blobDirName    = "blobs"

	// storeFormat versions the on-disk encoding.
	storeFormat = 1

	// maxTombstones bounds the expiry tombstone list carried across
	// checkpoints; beyond it the oldest tombstones age into plain 404s.
	maxTombstones = 10000
)

// WAL operations.
const (
	opSubmit     = "submit"
	opItemDone   = "item_done"
	opItemFailed = "item_failed"
	opDone       = "done"
	opCancel     = "cancel"
	opExpire     = "expire"
)

// record is one committed mutation of the job state.
type record struct {
	// Seq numbers records contiguously across the store's life; the
	// checkpoint stores the highest seq it has absorbed.
	Seq int64  `json:"seq"`
	Op  string `json:"op"`
	Job string `json:"job"`
	// Spec is the full job description and JobSeq the job's submission
	// sequence number (submit records only).
	Spec   *Spec `json:"spec,omitempty"`
	JobSeq int64 `json:"jobSeq,omitempty"`
	// At is the wall-clock time of the mutation in unix nanoseconds
	// (submit and done records).
	At int64 `json:"at,omitempty"`
	// Item is the 1-based item index (item records only).
	Item int `json:"item,omitempty"`
	// SHA addresses the result archive blob (item_done records only).
	SHA string `json:"sha,omitempty"`
	// Nanos is the item's execution latency (item records).
	Nanos int64 `json:"ns,omitempty"`
	// Msg carries the failure message (item_failed records only).
	Msg string `json:"msg,omitempty"`
	// State is the terminal job state (done records only).
	State State `json:"state,omitempty"`
}

// encodeRecord frames rec as one WAL line (durable.AppendFrame).
func encodeRecord(rec *record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding WAL record: %w", err)
	}
	return durable.AppendFrame(make([]byte, 0, len(payload)+10), payload), nil
}

// decodeRecord parses one frame payload, validating the fields a record
// of its operation must carry.
func decodeRecord(payload []byte) (*record, int64, bool) {
	rec := &record{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, false
	}
	if rec.Seq <= 0 || rec.Job == "" {
		return nil, 0, false
	}
	switch rec.Op {
	case opSubmit:
		if rec.Spec == nil || len(rec.Spec.Items) == 0 || rec.JobSeq <= 0 {
			return nil, 0, false
		}
	case opItemDone:
		if rec.Item <= 0 || rec.SHA == "" {
			return nil, 0, false
		}
	case opItemFailed:
		if rec.Item <= 0 {
			return nil, 0, false
		}
	case opDone:
		if !rec.State.Terminal() {
			return nil, 0, false
		}
	case opCancel, opExpire:
	default:
		return nil, 0, false
	}
	return rec, rec.Seq, true
}

// persistedItem is one item's durable state in a checkpoint.
type persistedItem struct {
	Status ItemStatus `json:"status"`
	SHA    string     `json:"sha,omitempty"`
	Error  string     `json:"error,omitempty"`
	Nanos  int64      `json:"ns,omitempty"`
}

// persistedJob is one job's durable state in a checkpoint.
type persistedJob struct {
	ID          string          `json:"id"`
	Seq         int64           `json:"seq"`
	Spec        Spec            `json:"spec"`
	State       State           `json:"state"`
	SubmittedAt int64           `json:"submittedAt"`
	DoneAt      int64           `json:"doneAt,omitempty"`
	Items       []persistedItem `json:"items"`
}

// checkpointDoc is the compacted on-disk snapshot.
type checkpointDoc struct {
	Format int `json:"format"`
	// WALSeq is the highest record sequence absorbed into this snapshot;
	// recovery replays only records beyond it.
	WALSeq  int64          `json:"walSeq"`
	NextJob int64          `json:"nextJob"`
	Jobs    []persistedJob `json:"jobs"`
	// Expired lists recently expired job IDs so reads can answer 410
	// instead of 404 after a restart.
	Expired []string `json:"expired,omitempty"`
}

// store is the persistence layer under a Manager: the WAL, the
// checkpoint and the blob store. Methods are safe for concurrent use.
type store struct {
	dir   string
	blobs durable.Blobs

	mu  sync.Mutex
	wal *durable.Log
	seq int64
}

// openStore opens (creating if needed) the job directory and recovers
// the durable state: checkpoint, then the WAL records beyond it, after
// sweeping crash-abandoned temp files.
func openStore(dir string) (*store, *checkpointDoc, []durable.Entry[*record], error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("jobs: creating job directory: %w", err)
	}
	if err := durable.SweepTemp(dir); err != nil {
		return nil, nil, nil, fmt.Errorf("jobs: sweeping temp files: %w", err)
	}

	cp := &checkpointDoc{Format: storeFormat}
	if data, err := os.ReadFile(filepath.Join(dir, checkpointName)); err == nil {
		if err := json.Unmarshal(data, cp); err != nil {
			return nil, nil, nil, fmt.Errorf("jobs: checkpoint corrupt: %w", err)
		}
		if cp.Format != storeFormat {
			return nil, nil, nil, fmt.Errorf("jobs: checkpoint format %d not supported (want %d)", cp.Format, storeFormat)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, nil, fmt.Errorf("jobs: reading checkpoint: %w", err)
	}

	wal, replay, err := durable.OpenLog(filepath.Join(dir, walName), cp.WALSeq, decodeRecord)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("jobs: recovering WAL: %w", err)
	}
	s := &store{dir: dir, blobs: durable.Blobs(filepath.Join(dir, blobDirName)), wal: wal, seq: cp.WALSeq + int64(len(replay))}
	return s, cp, replay, nil
}

// append commits one record: sequence assignment, framing, fsync. A
// failed append leaves no trace in the WAL and does not consume a
// sequence number.
func (s *store) append(rec *record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrClosed
	}
	rec.Seq = s.seq + 1
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if err := s.wal.Append(line, nil); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	s.seq = rec.Seq
	return nil
}

// checkpoint writes the compacted snapshot atomically and resets the
// WAL: records up to the snapshot's seq are absorbed, so the log can
// start empty.
func (s *store) checkpoint(doc *checkpointDoc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrClosed
	}
	doc.Format = storeFormat
	doc.WALSeq = s.seq
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("jobs: encoding checkpoint: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(s.dir, checkpointName), data, nil); err != nil {
		return fmt.Errorf("jobs: writing checkpoint: %w", err)
	}
	if err := s.wal.Reset(); err != nil {
		return fmt.Errorf("jobs: resetting WAL after checkpoint: %w", err)
	}
	return nil
}

// close releases the WAL handle; the store refuses further appends.
func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// putBlob stores data content-addressed and returns its address. Blobs
// are durable before any WAL record references them; an
// already-resident blob is a no-op, which is what deduplicates a model
// submitted for several targets.
func (s *store) putBlob(data []byte) (string, error) {
	sha := contentaddr.BlobSum(data)
	if _, err := s.blobs.Put(sha, data, nil); err != nil {
		return "", fmt.Errorf("jobs: storing blob: %w", err)
	}
	return sha, nil
}

// blob reads one content-addressed blob.
func (s *store) blob(sha string) ([]byte, error) {
	data, err := os.ReadFile(s.blobs.Path(sha))
	if err != nil {
		return nil, fmt.Errorf("jobs: reading blob %s: %w", sha, err)
	}
	return data, nil
}

// removeBlob deletes one blob; missing files are not an error (expiry
// races are harmless).
func (s *store) removeBlob(sha string) {
	os.Remove(s.blobs.Path(sha))
}
