package repo

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
)

// TestLogBelowWatermarkDiscarded reproduces the disk state of a crash
// inside InstallSnapshot, after the new manifest is renamed into place
// and before the WAL is reset: the manifest's watermark lies above
// every record left in the log. Recovery must discard that log, or the
// next publish is appended after a sequence gap and lost on the
// following reopen.
func TestLogBelowWatermarkDiscarded(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir, Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	mustPublish(t, r, req)
	oldWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, r, req)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	abandon(r)
	// Manifest at watermark 3, log holding only records 1 and 2.
	if err := os.WriteFile(filepath.Join(dir, walName), oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := openRepo(t, dir, Config{DefaultPolicy: PolicyNone})
	if v := mustPublish(t, r2, req); v.Number != 4 {
		t.Fatalf("number = %d, want 4", v.Number)
	}
	abandon(r2)

	r3 := openRepo(t, dir, Config{})
	if vs, err := r3.Versions(testSubject); err != nil || len(vs) != 4 {
		t.Fatalf("%d versions after reopen, %v; want 4 (the acknowledged publish was lost)", len(vs), err)
	}
}
