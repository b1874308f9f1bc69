package repo

import (
	"path/filepath"

	"github.com/go-ccts/ccts/internal/durable"
)

// Storage helpers the crash, fuzz and replication tests use, expressed
// over the durable kernel the repository runs on.

// scanWAL decodes the longest valid prefix of a WAL image.
func scanWAL(data []byte) (recs []*walRecord, goodLen int) {
	entries, goodLen := durable.Scan(data, decodeRecord)
	for _, e := range entries {
		recs = append(recs, e.Rec)
	}
	return recs, goodLen
}

// blobPath maps a content address to its file under the repository
// directory dir.
func blobPath(dir, sha string) string {
	return durable.Blobs(filepath.Join(dir, blobDirName)).Path(sha)
}

// scanBlobs counts the blobs resident under the repository directory
// dir and their bytes.
func scanBlobs(dir string) (count, bytes int64, err error) {
	err = durable.Blobs(filepath.Join(dir, blobDirName)).Walk(func(_ string, size int64) error {
		count++
		bytes += size
		return nil
	})
	return count, bytes, err
}
