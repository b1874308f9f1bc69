package repl

// The tests here drive Source and Follower over real HTTP through a
// thin endpoint mux. The real handler wiring lives in internal/server
// (which imports this package, so importing it back would cycle); the
// mux below mirrors its routing exactly, and internal/server's own
// repl tests cover the production handlers end to end.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/retry"
	"github.com/go-ccts/ccts/internal/xmi"
)

const testSubject = "urn:au:gov:vic:easybiz:draft:doc:HoardingPermit"

// publisher lands successive distinct versions of the paper's running
// example: each publish adds one enumeration literal (a compatible
// change) and regenerates the schema set.
type publisher struct {
	t testing.TB
	f *fixture.HoardingPermit
	n int
}

func newPublisher(t testing.TB) *publisher {
	return &publisher{t: t, f: fixture.MustBuildHoardingPermit()}
}

func (p *publisher) publish(r *repo.Repo) *repo.Version {
	p.t.Helper()
	if p.n > 0 {
		p.f.Model.FindENUM("CountryType_Code").AddLiteral(fmt.Sprintf("X%02d", p.n), fmt.Sprintf("Land %d", p.n))
	}
	p.n++
	var xb bytes.Buffer
	if err := xmi.Export(profile.Render(p.f.Model), &xb); err != nil {
		p.t.Fatalf("exporting XMI: %v", err)
	}
	res, err := gen.GenerateDocument(p.f.DOCLib, "HoardingPermit", gen.Options{})
	if err != nil {
		p.t.Fatalf("generating schemas: %v", err)
	}
	var files []repo.File
	for _, name := range res.Order {
		var b bytes.Buffer
		if err := res.Schemas[name].Write(&b); err != nil {
			p.t.Fatalf("serializing %s: %v", name, err)
		}
		files = append(files, repo.File{Name: name, Data: b.Bytes()})
	}
	v, err := r.Publish(repo.PublishRequest{
		Subject:     testSubject,
		Input:       xb.Bytes(),
		Fingerprint: "library=EB005-HoardingPermit&root=HoardingPermit",
		RootElement: res.RootElement,
		Files:       files,
		Diagnostics: []byte(`{"findings":[]}`),
	})
	if err != nil {
		p.t.Fatalf("Publish: %v", err)
	}
	return v
}

func openRepo(t testing.TB, dir string, cfg repo.Config) *repo.Repo {
	t.Helper()
	r, err := repo.Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// replMux wires a Source into the replication endpoint family the same
// way internal/server routes it. healthy, when non-nil and false, turns
// /healthz into a 503 — the follower probe's "primary down" signal.
func replMux(src *Source, healthy *atomic.Bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/wal", func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
		if err != nil || from < 0 {
			http.Error(w, "from must be a non-negative seq", http.StatusBadRequest)
			return
		}
		switch err := src.ServeWAL(r.Context(), from, w); {
		case err == nil:
		case errors.Is(err, repo.ErrSeqGap):
			http.Error(w, "wal_gap", http.StatusGone)
		default:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("GET /v1/repl/snapshot", func(w http.ResponseWriter, r *http.Request) {
		data, walSeq, err := src.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(SeqHeader, strconv.FormatInt(walSeq, 10))
		w.Write(data)
	})
	mux.HandleFunc("GET /v1/repl/blob/{sha}", func(w http.ResponseWriter, r *http.Request) {
		data, err := src.Blob(r.PathValue("sha"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthy != nil && !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// serveOn serves h on an existing listener and returns a hard stop
// (listener and live connections both closed — a process kill, not a
// drain). Keeping the address lets a test revive the primary at the
// URL the follower keeps dialing.
func serveOn(ln net.Listener, h http.Handler) func() {
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return func() { srv.Close() }
}

// listen binds a fresh loopback port.
func listen(t testing.TB, addr string) net.Listener {
	t.Helper()
	var ln net.Listener
	var err error
	// Rebinding the port a killed server just released can transiently
	// fail; it is free within moments.
	for range 100 {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("listen %s: %v", addr, err)
	return nil
}

// fastRetry keeps blob/snapshot fetches snappy in tests.
func fastRetry() retry.Policy {
	return retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
}

// testFollower builds a follower with test-speed timing and its own
// transport (so leak checks can close idle connections deterministically).
func testFollower(t testing.TB, r *repo.Repo, primaryURL string, opts FollowerOptions) *Follower {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	opts.HTTP = &http.Client{Transport: tr}
	if opts.PollWindow == 0 {
		opts.PollWindow = 300 * time.Millisecond
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 25 * time.Millisecond
	}
	opts.Retry = fastRetry()
	opts.Logf = t.Logf
	return NewFollower(r, primaryURL, opts)
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: condition not reached in time", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertIdentical fails unless replica serves byte-identical content to
// primary: same subjects, same version metadata, same stored bytes.
func assertIdentical(t testing.TB, primary, replica *repo.Repo) {
	t.Helper()
	ps, rs := primary.Subjects(), replica.Subjects()
	if !reflect.DeepEqual(ps, rs) {
		t.Fatalf("subjects diverged:\nprimary %+v\nreplica %+v", ps, rs)
	}
	for _, s := range ps {
		pv, err := primary.Versions(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := replica.Versions(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pv, rv) {
			t.Fatalf("%s: version lists diverged:\nprimary %+v\nreplica %+v", s.Name, pv, rv)
		}
		for _, v := range pv {
			if v.Deleted {
				continue
			}
			for _, fl := range v.Files {
				a, err := primary.VersionFile(s.Name, v.Number, fl.Name)
				if err != nil {
					t.Fatal(err)
				}
				b, err := replica.VersionFile(s.Name, v.Number, fl.Name)
				if err != nil {
					t.Fatalf("%s v%d %s on replica: %v", s.Name, v.Number, fl.Name, err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s v%d %s: replica bytes differ", s.Name, v.Number, fl.Name)
				}
			}
		}
	}
}

// checkGoroutines fails if the test leaked goroutines past the count
// observed at its start.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFollowerStreamsAndStaysIdentical(t *testing.T) {
	primary := openRepo(t, t.TempDir(), repo.Config{})
	pub := newPublisher(t)
	pub.publish(primary)
	pub.publish(primary)

	src := NewSource(primary, SourceOptions{Window: 150 * time.Millisecond})
	ts := httptest.NewServer(replMux(src, nil))
	defer ts.Close()

	follower := openRepo(t, t.TempDir(), repo.Config{})
	f := testFollower(t, follower, ts.URL, FollowerOptions{})
	f.Start()
	defer f.Stop()

	// The backlog replays, then a commit made while the stream is live
	// arrives through the long-poll wakeup.
	waitFor(t, "backlog", func() bool { return f.AppliedSeq() == primary.WALSeq() })
	pub.publish(primary)
	waitFor(t, "live frame", func() bool { return f.AppliedSeq() == primary.WALSeq() })
	assertIdentical(t, primary, follower)

	if got := f.Resyncs(); got != 0 {
		t.Errorf("resyncs = %d, want 0 (the tail covered the whole history)", got)
	}
	st := f.Status()
	if st.AppliedSeq != primary.WALSeq() || st.PrimarySeq != primary.WALSeq() {
		t.Errorf("status seqs = %+v, want both at %d", st, primary.WALSeq())
	}
	if st.LagSeconds != 0 {
		t.Errorf("lagSeconds = %v while caught up, want 0", st.LagSeconds)
	}
	if st.Promoted {
		t.Error("follower reports promoted without a Promote call")
	}
}

func TestFollowerBootstrapsWhenTailLost(t *testing.T) {
	// ReplTail 2 on a history of several commits: a follower starting
	// from 0 is behind the retained tail, gets 410, and must install the
	// snapshot before streaming.
	primary := openRepo(t, t.TempDir(), repo.Config{ReplTail: 2})
	pub := newPublisher(t)
	for range 4 {
		pub.publish(primary)
	}

	src := NewSource(primary, SourceOptions{Window: 150 * time.Millisecond})
	ts := httptest.NewServer(replMux(src, nil))
	defer ts.Close()

	follower := openRepo(t, t.TempDir(), repo.Config{})
	f := testFollower(t, follower, ts.URL, FollowerOptions{})
	f.Start()
	defer f.Stop()

	waitFor(t, "bootstrap", func() bool { return f.AppliedSeq() == primary.WALSeq() })
	assertIdentical(t, primary, follower)
	if got := f.Resyncs(); got != 1 {
		t.Errorf("resyncs = %d, want exactly 1 (the initial snapshot install)", got)
	}

	// The stream keeps working after the bootstrap.
	pub.publish(primary)
	waitFor(t, "post-bootstrap frame", func() bool { return f.AppliedSeq() == primary.WALSeq() })
	assertIdentical(t, primary, follower)
}

func TestPromoteRefusedWhileBehind(t *testing.T) {
	follower := openRepo(t, t.TempDir(), repo.Config{})
	f := testFollower(t, follower, "http://127.0.0.1:0", FollowerOptions{})
	// Never started: the follower has observed a primary seq it has not
	// applied (as after a stream that died mid-backlog).
	f.primarySeq.Store(99)

	if err := f.Promote(); !errors.Is(err, ErrBehind) {
		t.Fatalf("Promote while behind = %v, want ErrBehind", err)
	}
	if f.Promoted() {
		t.Fatal("refused promotion still flipped the promoted flag")
	}

	// Caught up (the primary's claim retracts to what is applied — the
	// operator accepted the position), promotion lands and is idempotent.
	f.primarySeq.Store(f.AppliedSeq())
	if err := f.Promote(); err != nil {
		t.Fatalf("Promote when caught up: %v", err)
	}
	if !f.Promoted() {
		t.Fatal("promotion did not stick")
	}
	if err := f.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
	f.Stop()
}
