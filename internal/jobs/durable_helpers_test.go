package jobs

import "github.com/go-ccts/ccts/internal/durable"

// scanWAL decodes the longest valid prefix of a WAL image, as recovery
// does before applying the checkpoint watermark.
func scanWAL(data []byte) (recs []*record, goodLen int) {
	entries, goodLen := durable.Scan(data, decodeRecord)
	for _, e := range entries {
		recs = append(recs, e.Rec)
	}
	return recs, goodLen
}
