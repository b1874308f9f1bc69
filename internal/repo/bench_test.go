package repo

import (
	"fmt"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
)

// BenchmarkRepoPublishCold measures a publish whose content is new every
// iteration: every blob misses the store, so the run prices the full
// canonicalize + hash + fsync + WAL pipeline.
func BenchmarkRepoPublishCold(b *testing.B) {
	r := openRepo(b, b.TempDir(), Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20})
	req := buildRequest(b, fixture.MustBuildHoardingPermit())
	var total int64
	for _, f := range req.Files {
		total += int64(len(f.Data))
	}
	b.SetBytes(total + int64(len(req.Input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := req
		iter.Input = append([]byte(fmt.Sprintf("<!--%d-->", i)), req.Input...)
		iter.Files = append([]File(nil), req.Files...)
		iter.Files[0] = File{Name: req.Files[0].Name, Data: append([]byte(fmt.Sprintf("<!--%d-->", i)), req.Files[0].Data...)}
		if _, err := r.Publish(iter); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepoPublishWarm measures a publish whose content already
// resides in the store: every blob write short-circuits on the stat, so
// the run prices the dedup fast path plus the WAL record.
func BenchmarkRepoPublishWarm(b *testing.B) {
	r := openRepo(b, b.TempDir(), Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20})
	req := buildRequest(b, fixture.MustBuildHoardingPermit())
	var total int64
	for _, f := range req.Files {
		total += int64(len(f.Data))
	}
	b.SetBytes(total + int64(len(req.Input)))
	if _, err := r.Publish(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Publish(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepoVersionFile measures the lock-free read path: snapshot
// lookup plus a verified blob read.
func BenchmarkRepoVersionFile(b *testing.B) {
	r := openRepo(b, b.TempDir(), Config{DefaultPolicy: PolicyNone})
	req := buildRequest(b, fixture.MustBuildHoardingPermit())
	if _, err := r.Publish(req); err != nil {
		b.Fatal(err)
	}
	name := req.Files[0].Name
	b.SetBytes(int64(len(req.Files[0].Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.VersionFile(testSubject, 1, name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepoPublishCompat measures a publish through the backward
// compatibility gate. Every iteration is a new revision of one subject:
// a trailing comment changes the input's address but not its model, and
// the publish is handed that model the way the server hands over its
// cache-miss import. The run prices the gate (base model and diff), the
// new input blob and the WAL commit.
func BenchmarkRepoPublishCompat(b *testing.B) {
	r := openRepo(b, b.TempDir(), Config{DefaultPolicy: PolicyBackward, CheckpointEvery: 1 << 20})
	req := buildRequest(b, fixture.MustBuildHoardingPermit())
	if _, err := r.Publish(req); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(req.Input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := req
		iter.Input = append(req.Input[:len(req.Input):len(req.Input)], fmt.Sprintf("<!--%d-->", i)...)
		if _, err := r.Publish(iter); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepoCheck measures the dry-run gate the way the compat
// endpoint calls it: a compatible revision, without a model, checked
// against the subject's latest version.
func BenchmarkRepoCheck(b *testing.B) {
	r := openRepo(b, b.TempDir(), Config{CheckpointEvery: 1 << 20})
	if _, err := r.Publish(buildRequest(b, fixture.MustBuildHoardingPermit())); err != nil {
		b.Fatal(err)
	}
	f := fixture.MustBuildHoardingPermit()
	additive(f)
	input := buildRequest(b, f).Input
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Check(testSubject, input, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Compatible {
			b.Fatal("additive revision checked incompatible")
		}
	}
}
