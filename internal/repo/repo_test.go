package repo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/go-ccts/ccts/internal/contentaddr"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/xmi"
)

const testSubject = "urn:au:gov:vic:easybiz:draft:doc:HoardingPermit"

// buildRequest exports the fixture's model as XMI, generates the
// HoardingPermit document schema set and assembles the publish request a
// pipeline client would send. Like the server, it hands over the model
// imported from the XMI, which nothing modifies afterwards (a publish
// keeps it as the subject's compatibility base).
func buildRequest(t testing.TB, f *fixture.HoardingPermit) PublishRequest {
	t.Helper()
	var xb bytes.Buffer
	if err := xmi.Export(profile.Render(f.Model), &xb); err != nil {
		t.Fatalf("exporting XMI: %v", err)
	}
	um, err := xmi.Import(bytes.NewReader(xb.Bytes()))
	if err != nil {
		t.Fatalf("importing XMI: %v", err)
	}
	model, err := profile.Extract(um)
	if err != nil {
		t.Fatalf("extracting model: %v", err)
	}
	res, err := gen.GenerateDocument(f.DOCLib, "HoardingPermit", gen.Options{})
	if err != nil {
		t.Fatalf("generating schemas: %v", err)
	}
	var files []File
	for _, name := range res.Order {
		var b bytes.Buffer
		if err := res.Schemas[name].Write(&b); err != nil {
			t.Fatalf("serializing %s: %v", name, err)
		}
		files = append(files, File{Name: name, Data: b.Bytes()})
	}
	return PublishRequest{
		Subject:     testSubject,
		Input:       xb.Bytes(),
		Fingerprint: "library=EB005-HoardingPermit&root=HoardingPermit",
		RootElement: res.RootElement,
		Files:       files,
		Diagnostics: []byte(`{"findings":[]}`),
		Model:       model,
	}
}

// additive mutates the fixture compatibly: a new enumeration literal.
func additive(f *fixture.HoardingPermit) {
	f.Model.FindENUM("CountryType_Code").AddLiteral("NZL", "New Zealand")
}

// breaking mutates the fixture incompatibly: an enumeration literal is
// removed, so documents valid against the old schema can be rejected.
func breaking(f *fixture.HoardingPermit) {
	enum := f.Model.FindENUM("CountryType_Code")
	enum.Literals = enum.Literals[1:] // drops USA
}

func openRepo(t testing.TB, dir string, cfg Config) *Repo {
	t.Helper()
	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func mustPublish(t testing.TB, r *Repo, req PublishRequest) *Version {
	t.Helper()
	v, err := r.Publish(req)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return v
}

func TestPublishAndRead(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())

	v := mustPublish(t, r, req)
	if v.Number != 1 {
		t.Errorf("first version number = %d, want 1", v.Number)
	}
	if len(v.Files) != len(req.Files) {
		t.Fatalf("version has %d files, want %d", len(v.Files), len(req.Files))
	}
	if v.RootElement != req.RootElement || v.RootElement == "" {
		t.Errorf("RootElement = %q, want %q", v.RootElement, req.RootElement)
	}

	// Latest (number 0) resolves to the published version.
	got, err := r.Version(testSubject, 0)
	if err != nil {
		t.Fatalf("Version(latest): %v", err)
	}
	if got.Number != 1 || got.InputSHA256 != v.InputSHA256 {
		t.Errorf("latest = %+v, want published version", got)
	}

	// Every stored file reads back byte-identically.
	for i, f := range req.Files {
		data, err := r.VersionFile(testSubject, 1, f.Name)
		if err != nil {
			t.Fatalf("VersionFile(%s): %v", f.Name, err)
		}
		if !bytes.Equal(data, f.Data) {
			t.Errorf("file %s differs after round-trip", f.Name)
		}
		if v.Files[i].Name != f.Name {
			t.Errorf("file order: got %s at %d, want %s", v.Files[i].Name, i, f.Name)
		}
	}

	// The stored input is the canonicalized XMI.
	in, err := r.Blob(v.InputSHA256)
	if err != nil {
		t.Fatalf("Blob(input): %v", err)
	}
	if !bytes.Equal(in, contentaddr.Canonicalize(req.Input)) {
		t.Error("stored input is not the canonicalized XMI")
	}

	// Subject listing and default policy.
	if p, err := r.Policy(testSubject); err != nil || p != PolicyBackward {
		t.Errorf("Policy = %q, %v; want backward", p, err)
	}
	subs := r.Subjects()
	if len(subs) != 1 || subs[0].Name != testSubject || subs[0].Versions != 1 || subs[0].Latest != 1 {
		t.Errorf("Subjects = %+v", subs)
	}

	// Unknown lookups.
	if _, err := r.Version("nope", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown subject: %v, want ErrNotFound", err)
	}
	if _, err := r.Version(testSubject, 99); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown version: %v, want ErrNotFound", err)
	}
	if _, err := r.VersionFile(testSubject, 1, "nope.xsd"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown file: %v, want ErrNotFound", err)
	}
}

func TestPublishValidation(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	if _, err := r.Publish(PublishRequest{Files: []File{{Name: "a.xsd"}}}); err == nil {
		t.Error("publish without subject must fail")
	}
	if _, err := r.Publish(PublishRequest{Subject: "s"}); err == nil {
		t.Error("publish without files must fail")
	}
	if _, err := r.Publish(PublishRequest{Subject: "s", Files: []File{{Name: "a.xsd"}}, Policy: "weird"}); err == nil {
		t.Error("publish with unknown policy must fail")
	}
	if _, err := ParsePolicy("forward"); err == nil {
		t.Error("ParsePolicy must reject unknown names")
	}
}

func TestBackwardPolicyRejectsBreaking(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))

	f2 := fixture.MustBuildHoardingPermit()
	breaking(f2)
	_, err := r.Publish(buildRequest(t, f2))
	var ce *CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("breaking publish returned %v, want *CompatError", err)
	}
	if ce.Subject != testSubject || ce.Against != 1 || ce.Policy != PolicyBackward {
		t.Errorf("CompatError = %+v", ce)
	}
	if len(ce.Report.Breaking()) == 0 {
		t.Error("CompatError carries no breaking changes")
	}
	if ce.Error() == "" {
		t.Error("CompatError.Error empty")
	}

	// Nothing was committed.
	vs, err := r.Versions(testSubject)
	if err != nil || len(vs) != 1 {
		t.Errorf("after rejection: %d versions, %v; want 1", len(vs), err)
	}
	if st := r.Stats(); st.Rejections != 1 || st.Publishes != 1 {
		t.Errorf("stats = %+v, want 1 publish, 1 rejection", st)
	}
}

func TestCompatGateImportsWhenModelMissing(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))

	// Same revision without a pre-imported model: the repository imports
	// the input itself and the identical model publishes cleanly.
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	req.Model = nil
	if v := mustPublish(t, r, req); v.Number != 2 {
		t.Errorf("number = %d, want 2", v.Number)
	}

	// Garbage input cannot be diffed and must fail before commit.
	bad := req
	bad.Model = nil
	bad.Input = []byte("<not-xmi/>")
	if _, err := r.Publish(bad); err == nil {
		t.Error("publish with unimportable input must fail under backward policy")
	}
}

func TestAdditivePublishSharesBlobs(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	v1 := mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))
	before := r.Stats()

	f2 := fixture.MustBuildHoardingPermit()
	additive(f2)
	v2 := mustPublish(t, r, buildRequest(t, f2))
	if v2.Number != 2 {
		t.Fatalf("number = %d, want 2", v2.Number)
	}

	// Only the enumeration library's schema changed; every other file of
	// v2 must reference the same blob as v1.
	shas1 := map[string]string{}
	for _, f := range v1.Files {
		shas1[f.Name] = f.SHA256
	}
	shared, changed := 0, 0
	for _, f := range v2.Files {
		switch shas1[f.Name] {
		case f.SHA256:
			shared++
		default:
			changed++
		}
	}
	if shared == 0 {
		t.Error("additive revision shares no schema blobs with its predecessor")
	}
	if changed == 0 {
		t.Error("additive revision changed no schema (mutation did not take)")
	}

	// The physical store grew by the changed content only: the new input
	// and the changed schemas, not the full set.
	after := r.Stats()
	newBlobs := after.Blobs - before.Blobs
	if want := int64(changed + 1); newBlobs != want {
		t.Errorf("publish added %d blobs, want %d (changed files + input)", newBlobs, want)
	}
	if after.DedupRatio() <= 1 {
		t.Errorf("DedupRatio = %v, want > 1 after a shared publish", after.DedupRatio())
	}
}

func TestPolicyNoneAcceptsBreaking(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{DefaultPolicy: PolicyNone})
	mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))

	f2 := fixture.MustBuildHoardingPermit()
	breaking(f2)
	if v := mustPublish(t, r, buildRequest(t, f2)); v.Number != 2 {
		t.Errorf("number = %d, want 2", v.Number)
	}
	if p, _ := r.Policy(testSubject); p != PolicyNone {
		t.Errorf("policy = %q, want none", p)
	}
}

func TestPolicyOverridePersists(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{}) // default backward
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	req.Policy = PolicyNone
	mustPublish(t, r, req)
	if p, _ := r.Policy(testSubject); p != PolicyNone {
		t.Fatalf("policy = %q, want none after override", p)
	}

	// The override sticks: a later breaking publish with no explicit
	// policy inherits none and succeeds.
	f2 := fixture.MustBuildHoardingPermit()
	breaking(f2)
	if v := mustPublish(t, r, buildRequest(t, f2)); v.Number != 2 {
		t.Errorf("number = %d, want 2", v.Number)
	}
}

func TestDeleteTombstones(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))
	f2 := fixture.MustBuildHoardingPermit()
	additive(f2)
	mustPublish(t, r, buildRequest(t, f2))

	if err := r.Delete(testSubject, 2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := r.Version(testSubject, 2); !errors.Is(err, ErrDeleted) {
		t.Errorf("deleted version read: %v, want ErrDeleted", err)
	}
	if v, err := r.Version(testSubject, 0); err != nil || v.Number != 1 {
		t.Errorf("latest after delete = %+v, %v; want version 1", v, err)
	}
	vs, _ := r.Versions(testSubject)
	if len(vs) != 2 || !vs[1].Deleted {
		t.Errorf("Versions = %+v, want 2 entries with a tombstone", vs)
	}

	// Double delete and unknown targets.
	if err := r.Delete(testSubject, 2); !errors.Is(err, ErrDeleted) {
		t.Errorf("double delete: %v, want ErrDeleted", err)
	}
	if err := r.Delete(testSubject, 9); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete unknown version: %v, want ErrNotFound", err)
	}
	if err := r.Delete("nope", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete unknown subject: %v, want ErrNotFound", err)
	}

	// Numbers are never reused: the next publish is version 3, and it
	// gates against version 1 (the latest live).
	f3 := fixture.MustBuildHoardingPermit()
	additive(f3)
	if v := mustPublish(t, r, buildRequest(t, f3)); v.Number != 3 {
		t.Errorf("number after tombstone = %d, want 3", v.Number)
	}

	if st := r.Stats(); st.Deleted != 1 || st.Versions != 2 || st.Deletes != 1 {
		t.Errorf("stats = %+v, want 1 tombstone among 3", st)
	}
}

// TestReopenServesIdentical reopens the repository both through a clean
// Close (manifest checkpoint) and from the WAL alone (no checkpoint, as
// after a crash) and requires every stored file byte-identical.
func TestReopenServesIdentical(t *testing.T) {
	for _, clean := range []bool{true, false} {
		name := "after-close"
		if !clean {
			name = "from-wal"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// A huge checkpoint interval keeps everything in the WAL for
			// the crash-like variant.
			r, err := Open(dir, Config{CheckpointEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			req1 := buildRequest(t, fixture.MustBuildHoardingPermit())
			mustPublish(t, r, req1)
			f2 := fixture.MustBuildHoardingPermit()
			additive(f2)
			req2 := buildRequest(t, f2)
			mustPublish(t, r, req2)
			if err := r.Delete(testSubject, 1); err != nil {
				t.Fatal(err)
			}
			if clean {
				if err := r.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			} else {
				// Abandon the handle without checkpointing — state must
				// come back from manifest-less WAL replay.
				r.mu.Lock()
				r.closed = true
				r.wal.Close()
				r.mu.Unlock()
			}

			r2 := openRepo(t, dir, Config{})
			vs, err := r2.Versions(testSubject)
			if err != nil || len(vs) != 2 {
				t.Fatalf("after reopen: %d versions, %v; want 2", len(vs), err)
			}
			if !vs[0].Deleted {
				t.Error("tombstone lost across reopen")
			}
			if p, _ := r2.Policy(testSubject); p != PolicyBackward {
				t.Errorf("policy after reopen = %q", p)
			}
			for _, f := range req2.Files {
				data, err := r2.VersionFile(testSubject, 2, f.Name)
				if err != nil {
					t.Fatalf("VersionFile(%s) after reopen: %v", f.Name, err)
				}
				if !bytes.Equal(data, f.Data) {
					t.Errorf("file %s differs after reopen", f.Name)
				}
			}
			// The compat gate still works against recovered state.
			fb := fixture.MustBuildHoardingPermit()
			breaking(fb)
			var ce *CompatError
			if _, err := r2.Publish(buildRequest(t, fb)); !errors.As(err, &ce) {
				t.Errorf("breaking publish after reopen: %v, want *CompatError", err)
			}
		})
	}
}

func TestCheckDryRun(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})

	// Unknown subject: compatible (the publish would create it) but the
	// input must still import.
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	res, err := r.Check(testSubject, req.Input, nil)
	if err != nil || !res.Compatible || res.Against != 0 {
		t.Errorf("check new subject = %+v, %v; want compatible against 0", res, err)
	}
	if _, err := r.Check(testSubject, []byte("junk"), nil); err == nil {
		t.Error("check with unimportable input must fail")
	}
	if _, err := r.Check("", req.Input, nil); err == nil {
		t.Error("check without subject must fail")
	}

	mustPublish(t, r, req)

	fb := fixture.MustBuildHoardingPermit()
	breaking(fb)
	bad := buildRequest(t, fb)
	res, err = r.Check(testSubject, bad.Input, bad.Model)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Compatible || res.Against != 1 || len(res.Report.Breaking()) == 0 {
		t.Errorf("breaking check = %+v, want incompatible against 1", res)
	}

	fa := fixture.MustBuildHoardingPermit()
	additive(fa)
	good := buildRequest(t, fa)
	res, err = r.Check(testSubject, good.Input, good.Model)
	if err != nil || !res.Compatible {
		t.Errorf("additive check = %+v, %v; want compatible", res, err)
	}

	// Nothing was stored by any dry run.
	if vs, _ := r.Versions(testSubject); len(vs) != 1 {
		t.Errorf("check stored state: %d versions, want 1", len(vs))
	}
}

func TestCheckUnderPolicyNone(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{DefaultPolicy: PolicyNone})
	mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))
	fb := fixture.MustBuildHoardingPermit()
	breaking(fb)
	bad := buildRequest(t, fb)
	res, err := r.Check(testSubject, bad.Input, bad.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible {
		t.Error("policy none must report breaking revisions compatible")
	}
	if len(res.Report.Breaking()) == 0 {
		t.Error("the report must still surface the breaking changes")
	}
}

func TestGC(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	v1 := mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))
	f2 := fixture.MustBuildHoardingPermit()
	additive(f2)
	req2 := buildRequest(t, f2)
	v2 := mustPublish(t, r, req2)

	// Nothing to collect while both versions live.
	res, err := r.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if res.Blobs != 0 {
		t.Errorf("GC reclaimed %d blobs from a fully live store", res.Blobs)
	}

	// Tombstone v1: its unique blobs (old input, old enum schema) become
	// garbage; everything shared with v2 must survive.
	if err := r.Delete(testSubject, 1); err != nil {
		t.Fatal(err)
	}
	res, err = r.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if res.Blobs == 0 || res.Bytes == 0 {
		t.Error("GC reclaimed nothing after a tombstone")
	}
	if _, err := r.Blob(v1.InputSHA256); !errors.Is(err, ErrNotFound) {
		t.Errorf("tombstoned input still resident: %v", err)
	}
	for _, f := range req2.Files {
		data, err := r.VersionFile(testSubject, 2, f.Name)
		if err != nil {
			t.Fatalf("VersionFile(%s) after GC: %v", f.Name, err)
		}
		if !bytes.Equal(data, f.Data) {
			t.Errorf("file %s corrupted by GC", f.Name)
		}
	}
	if _, err := r.Blob(v2.InputSHA256); err != nil {
		t.Errorf("live input reclaimed: %v", err)
	}

	// Counters track the sweep.
	st := r.Stats()
	count, bytes_, err := scanBlobs(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blobs != count || st.BlobBytes != bytes_ {
		t.Errorf("stats (%d blobs, %d B) disagree with disk (%d, %d)", st.Blobs, st.BlobBytes, count, bytes_)
	}
}

func TestMetrics(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	reg := metrics.NewRegistry()
	r.Instrument(reg)

	mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))
	fb := fixture.MustBuildHoardingPermit()
	breaking(fb)
	if _, err := r.Publish(buildRequest(t, fb)); err == nil {
		t.Fatal("breaking publish must fail")
	}
	if err := r.Delete(testSubject, 1); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	want := map[string]int64{
		"repo_publishes_total":        1,
		"repo_publish_rejected_total": 1,
		"repo_deletes_total":          1,
		"repo_subjects":               1,
	}
	for name, val := range want {
		if snap[name] != val {
			t.Errorf("%s = %d, want %d", name, snap[name], val)
		}
	}
	if snap["repo_blobs"] <= 0 || snap["repo_blob_bytes"] <= 0 {
		t.Errorf("blob gauges not exported: %v", snap)
	}
}

func TestClosedRepoRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := r.Publish(req); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close: %v, want ErrClosed", err)
	}
	if err := r.Delete(testSubject, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("delete after close: %v, want ErrClosed", err)
	}
	if err := r.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("checkpoint after close: %v, want ErrClosed", err)
	}
}

func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir, Config{DefaultPolicy: PolicyNone, CheckpointEvery: 2})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())

	// Two publishes trigger the automatic checkpoint: the manifest
	// appears and the WAL is emptied.
	mustPublish(t, r, req)
	mustPublish(t, r, req)
	if fi, err := os.Stat(filepath.Join(dir, manifestName)); err != nil || fi.Size() == 0 {
		t.Fatalf("manifest after auto-checkpoint: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Errorf("WAL not compacted: size %d, %v", fi.Size(), err)
	}

	// A third publish lands in the fresh WAL; reopening merges manifest
	// and WAL into the full sequence.
	mustPublish(t, r, req)
	if fi, _ := os.Stat(filepath.Join(dir, walName)); fi.Size() == 0 {
		t.Error("post-checkpoint publish wrote no WAL record")
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("manual checkpoint: %v", err)
	}
	r.Close()

	r2 := openRepo(t, dir, Config{})
	vs, err := r2.Versions(testSubject)
	if err != nil || len(vs) != 3 {
		t.Fatalf("after reopen: %d versions, %v; want 3", len(vs), err)
	}
}

func TestConcurrentPublishesOneSubject(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{DefaultPolicy: PolicyNone})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Publish(req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("publisher %d: %v", i, err)
		}
	}
	vs, err := r.Versions(testSubject)
	if err != nil || len(vs) != n {
		t.Fatalf("%d versions, %v; want %d", len(vs), err, n)
	}
	for i, v := range vs {
		if v.Number != i+1 {
			t.Errorf("version %d has number %d", i, v.Number)
		}
	}
	// Identical content: the store holds one copy of every blob.
	st := r.Stats()
	wantBlobs := int64(len(req.Files)) + 2 // schemas + input + diagnostics
	if st.Blobs != wantBlobs {
		t.Errorf("store holds %d blobs, want %d (full dedup)", st.Blobs, wantBlobs)
	}
}

func TestConcurrentSubjects(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{DefaultPolicy: PolicyNone})
	base := buildRequest(t, fixture.MustBuildHoardingPermit())

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := base
			req.Subject = fmt.Sprintf("%s/%d", base.Subject, i)
			_, errs[i] = r.Publish(req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("publisher %d: %v", i, err)
		}
	}
	if subs := r.Subjects(); len(subs) != n {
		t.Errorf("%d subjects, want %d", len(subs), n)
	}
	if st := r.Stats(); st.DedupRatio() < float64(n)-0.5 {
		t.Errorf("DedupRatio = %v, want close to %d for identical content", st.DedupRatio(), n)
	}
}

func TestBlobVerifiesDigest(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	v := mustPublish(t, r, buildRequest(t, fixture.MustBuildHoardingPermit()))

	// Flip a byte on disk: the read must detect the corruption.
	path := blobPath(r.dir, v.InputSHA256)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Blob(v.InputSHA256); err == nil {
		t.Error("corrupt blob read succeeded")
	}
	if _, err := r.Blob("zz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("malformed address: %v, want ErrNotFound", err)
	}
}
