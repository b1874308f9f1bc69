package repo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/go-ccts/ccts/internal/durable"
)

// On-disk layout under the repository directory, written through the
// internal/durable kernel:
//
//	manifest.json          compacted snapshot of all subjects
//	                       (durable.WriteFile)
//	wal.log                append-only records since the manifest's
//	                       checkpoint, one JSON payload per frame
//	                       (durable.Log)
//	blobs/<p>/<sha256>     content-addressed artifact store (p = first
//	                       two hex digits); schemas, diagnostics and
//	                       canonicalized inputs, shared across versions
//	                       (durable.Blobs)
//
// Every record and the manifest are fsync'd before the in-memory state
// advances, so a publish that returned success survives a crash. A
// crash mid-append leaves a torn tail in wal.log; recovery keeps the
// longest valid prefix (complete, CRC-verified frames whose records
// decode with contiguous sequence numbers) under durable.OpenLog's
// watermark rule and serves exactly those fully committed records.

const (
	manifestName = "manifest.json"
	walName      = "wal.log"
	blobDirName  = "blobs"

	// manifestFormat versions the on-disk encoding.
	manifestFormat = 1
)

// WAL operations.
const (
	opPublish = "publish"
	opDelete  = "delete"
)

// walRecord is one committed mutation.
type walRecord struct {
	// Seq numbers records contiguously across the repository's life;
	// the manifest stores the highest seq it has absorbed.
	Seq     int64  `json:"seq"`
	Op      string `json:"op"`
	Subject string `json:"subject"`
	// Policy is the subject's compatibility policy as of this record
	// (publish records only).
	Policy Policy `json:"policy,omitempty"`
	// Version is the published version (publish records only).
	Version *Version `json:"version,omitempty"`
	// Number is the tombstoned version (delete records only).
	Number int `json:"number,omitempty"`
}

// Fault-injection seams, nil in production: tests interpose
// faultio.Writer to kill a WAL append, a manifest checkpoint or a blob
// write mid-stream and then assert recovery.
var (
	wrapWALWriter      func(io.Writer) io.Writer
	wrapManifestWriter func(io.Writer) io.Writer
	wrapBlobWriter     func(io.Writer) io.Writer
)

// encodeRecord frames rec as one WAL line (durable.AppendFrame).
func encodeRecord(rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("repo: encoding WAL record: %w", err)
	}
	return durable.AppendFrame(make([]byte, 0, len(payload)+10), payload), nil
}

// decodeLine parses one WAL line given without its newline.
func decodeLine(line []byte) (*walRecord, bool) {
	payload, ok := durable.ParseFrame(line)
	if !ok {
		return nil, false
	}
	rec, _, ok := decodeRecord(payload)
	return rec, ok
}

// decodeRecord parses one frame payload, validating the fields a record
// of its operation must carry.
func decodeRecord(payload []byte) (*walRecord, int64, bool) {
	rec := &walRecord{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, false
	}
	if rec.Seq <= 0 || rec.Subject == "" {
		return nil, 0, false
	}
	switch rec.Op {
	case opPublish:
		if rec.Version == nil {
			return nil, 0, false
		}
	case opDelete:
		if rec.Number <= 0 {
			return nil, 0, false
		}
	default:
		return nil, 0, false
	}
	return rec, rec.Seq, true
}

// manifest is the compacted on-disk snapshot.
type manifest struct {
	Format int `json:"format"`
	// WALSeq is the highest WAL sequence number absorbed into this
	// snapshot; recovery replays only records beyond it.
	WALSeq   int64             `json:"walSeq"`
	Subjects []manifestSubject `json:"subjects"`
}

type manifestSubject struct {
	Name     string    `json:"name"`
	Policy   Policy    `json:"policy"`
	Versions []Version `json:"versions"`
}

// manifestPath locates the manifest file under the repository root.
func manifestPath(dir string) string {
	return filepath.Join(dir, manifestName)
}

// parseManifest decodes and validates a serialized manifest — the local
// file or a replication snapshot shipped over the wire.
func parseManifest(data []byte) (*manifest, error) {
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("repo: manifest corrupt: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("repo: manifest format %d not supported (want %d)", m.Format, manifestFormat)
	}
	return m, nil
}

// readManifest loads the manifest; a missing file yields the empty
// snapshot (fresh repository or crash before the first checkpoint).
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return &manifest{Format: manifestFormat}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repo: reading manifest: %w", err)
	}
	return parseManifest(data)
}
