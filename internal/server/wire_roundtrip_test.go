package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/repl"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/shard"
)

// wireShape returns a new value of the shared declaration that a
// request for target answers with status.
func wireShape(method, target string, status int) any {
	u, _ := url.Parse(target)
	switch path := u.Path; {
	case status == http.StatusConflict:
		return new(api.Incompatible)
	case status >= 400:
		return new(api.Error)
	case path == "/v1/validate":
		return new(api.Validation)
	case path == "/v1/generate":
		return new(api.Diagnostics)
	case path == "/v1/repo":
		return new(api.Aggregate)
	case path == "/v1/repo/subjects":
		return new([]repo.SubjectInfo)
	case strings.HasSuffix(path, "/compat"):
		return new(api.Compat)
	case method == http.MethodDelete:
		return new(api.Deleted)
	case strings.HasSuffix(path, "/versions") && method == http.MethodGet:
		return new(api.VersionList)
	case u.Query().Get("format") == "json" || method == http.MethodPost:
		return new(api.Version)
	}
	return new(api.Diagnostics) // a stored version's zip
}

// checkRoundTrip decodes an answer into v and requires that encoding v
// gives the answer back byte for byte, so that the shared declaration
// carries every field the server writes.
func checkRoundTrip(t *testing.T, what string, answer []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(answer, v); err != nil {
		t.Errorf("%s: decoding into %T: %v", what, v, err)
		return
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSuffix(answer, []byte("\n")); !bytes.Equal(again, want) {
		t.Errorf("%s: %T re-encodes as\n%s\nwant\n%s", what, v, again, want)
	}
}

// TestWireRoundTrip: every JSON answer of the recorded sequence, and
// the diagnostics.json inside its archives, survives a decode into its
// shared declaration and an encode back.
func TestWireRoundTrip(t *testing.T) {
	replayWire(t, func(step wireStep, rec *httptest.ResponseRecorder) {
		answer := rec.Body.Bytes()
		switch ct := rec.Header().Get("Content-Type"); {
		case ct == "application/zip":
			answer = readZip(t, answer)[diagnosticsName]
		case ct != "application/json":
			return // multipart carries the zip's diagnostics.json
		}
		checkRoundTrip(t, step.name, answer, wireShape(step.method, step.path, rec.Code))
	})
}

// TestWireRoundTripJobs covers the answers that carry timestamps: a
// job document and the job listing.
func TestWireRoundTripJobs(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 1})
	defer mgr.Close(context.Background())
	h := s.Handler()
	doc, rec := postJob(t, h, sampleXMI(t), docQuery)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	checkRoundTrip(t, "submitted job", rec.Body.Bytes(), new(api.Job))
	waitJobState(t, h, doc.ID, jobs.Completed)
	rec = repoRequest(t, h, http.MethodGet, "/v1/jobs/"+doc.ID, nil)
	checkRoundTrip(t, "completed job", rec.Body.Bytes(), new(api.Job))
	rec = repoRequest(t, h, http.MethodGet, "/v1/jobs", nil)
	checkRoundTrip(t, "job listing", rec.Body.Bytes(), new([]api.Job))
}

// closedAddr is a local address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()
	return addr
}

// TestWireRoundTripCluster covers the answers that need a cluster: a
// sharded aggregate with one unreachable shard, a 421 wrong_shard
// (owner and epoch) and a replica's 503 read_only (primary).
func TestWireRoundTripCluster(t *testing.T) {
	m, err := shard.NewMap(4, 16, []shard.Shard{
		{ID: "a", Addr: closedAddr(t)},
		{ID: "b", Addr: closedAddr(t)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repo.Open(t.TempDir(), repo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp.Close() })
	h := New(Config{Repo: rp, Shard: newShardRouter(t, m, "a")}).Handler()
	local := subjectOwnedBy(t, m, "a", 1)
	if rec := repoRequest(t, h, http.MethodPost, "/v1/repo/subjects/"+local+"/versions?"+docQuery, sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("publish = %d: %s", rec.Code, rec.Body.String())
	}
	rec := repoRequest(t, h, http.MethodGet, "/v1/repo", nil)
	var agg api.Aggregate
	checkRoundTrip(t, "sharded aggregate", rec.Body.Bytes(), &agg)
	if len(agg.Unreachable) != 1 || len(agg.Subjects) != 1 || agg.Subjects[0].Shard != "a" {
		t.Errorf("aggregate = %s, want one row from a and b unreachable", rec.Body.String())
	}
	rec = repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+subjectOwnedBy(t, m, "b", 2)+"/versions", nil)
	var wrong api.Error
	checkRoundTrip(t, "421 wrong_shard", rec.Body.Bytes(), &wrong)
	if rec.Code != http.StatusMisdirectedRequest || wrong.Owner == "" || wrong.Epoch != 4 {
		t.Errorf("wrong shard = %d %s, want 421 with owner and epoch", rec.Code, rec.Body.String())
	}

	frp, err := repo.Open(t.TempDir(), repo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frp.Close() })
	fol := repl.NewFollower(frp, closedAddr(t), repl.FollowerOptions{}) // never started
	rec = repoRequest(t, New(Config{Repo: frp, Follower: fol}).Handler(), http.MethodPost, publishPath(""), sampleXMI(t))
	var ro api.Error
	checkRoundTrip(t, "503 read_only", rec.Body.Bytes(), &ro)
	if rec.Code != http.StatusServiceUnavailable || ro.Code != "read_only" || ro.Primary == "" {
		t.Errorf("replica write = %d %s, want 503 read_only with a primary", rec.Code, rec.Body.String())
	}
}
