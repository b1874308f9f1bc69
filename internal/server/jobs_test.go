package server

import (
	"archive/zip"
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/backends"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/schemacache"
)

// newJobServer builds a Server over a fresh job manager rooted at dir.
// The caller owns the manager (start/close), mirroring ccserved.
func newJobServer(t *testing.T, dir string, cfg Config, jcfg jobs.Config) (*Server, *jobs.Manager) {
	t.Helper()
	mgr, err := jobs.Open(dir, jcfg)
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	cfg.Jobs = mgr
	s := New(cfg)
	mgr.Start()
	return s, mgr
}

// buildJobZip assembles a batch submission archive: job.json plus the
// model files.
func buildJobZip(t *testing.T, manifest string, models map[string][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	add := func(name string, data []byte) {
		w, err := zw.Create(name)
		if err != nil {
			t.Fatalf("zip create %s: %v", name, err)
		}
		w.Write(data)
	}
	add("job.json", []byte(manifest))
	for name, data := range models {
		add(name, data)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postJob submits a body to POST /v1/jobs and decodes the job document.
func postJob(t *testing.T, h http.Handler, body []byte, query string) (api.Job, *httptest.ResponseRecorder) {
	t.Helper()
	url := "/v1/jobs"
	if query != "" {
		url += "?" + query
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc api.Job
	if rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("decoding job doc: %v", err)
		}
	}
	return doc, rec
}

// getJob fetches GET /v1/jobs/{id}.
func getJob(t *testing.T, h http.Handler, id string) (api.Job, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc api.Job
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("decoding job doc: %v", err)
		}
	}
	return doc, rec.Code
}

// waitJobState polls the HTTP status document until the job reaches
// want or settles elsewhere.
func waitJobState(t *testing.T, h http.Handler, id string, want jobs.State) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		doc, code := getJob(t, h, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		if doc.State == want {
			return doc
		}
		if doc.State.Terminal() {
			t.Fatalf("job %s settled as %s (want %s): %+v", id, doc.State, want, doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return api.Job{}
}

// TestJobsSingleModelByteIdenticalToSync submits one raw model per
// target through the async path and asserts each stored result archive
// is byte-for-byte the synchronous /v1/generate response for the same
// model and options, and the result answers with its Content-Length.
func TestJobsSingleModelByteIdenticalToSync(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 2})
	defer mgr.Close(context.Background())
	h := s.Handler()
	body := sampleXMI(t)

	for _, target := range backends.Targets() {
		query := docQuery + "&target=" + target
		doc, rec := postJob(t, h, body, query+"&name=single")
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, body %s", target, rec.Code, rec.Body.String())
		}
		if doc.ID == "" || doc.Total != 1 {
			t.Fatalf("%s: job doc: %+v", target, doc)
		}
		if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+doc.ID {
			t.Errorf("%s: Location = %q", target, loc)
		}
		waitJobState(t, h, doc.ID, jobs.Completed)

		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+doc.ID+"/result", nil)
		res := httptest.NewRecorder()
		h.ServeHTTP(res, req)
		if res.Code != http.StatusOK {
			t.Fatalf("%s: result = %d, body %s", target, res.Code, res.Body.String())
		}
		if cl := res.Header().Get("Content-Length"); cl != strconv.Itoa(res.Body.Len()) {
			t.Errorf("%s: result Content-Length %q for %d bytes", target, cl, res.Body.Len())
		}

		sync := postGenerate(t, h, body, query)
		if sync.Code != http.StatusOK {
			t.Fatalf("%s: sync generate = %d", target, sync.Code)
		}
		if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
			t.Fatalf("%s: async result archive differs from synchronous /v1/generate response", target)
		}
	}
}

// TestJobsBatchZipSubmission drives the zip manifest path: shared
// defaults, per-item overrides, and the outer result archive.
func TestJobsBatchZipSubmission(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 2})
	defer mgr.Close(context.Background())
	h := s.Handler()
	model := sampleXMI(t)

	manifest := `{
		"name": "migration",
		"priority": 3,
		"defaults": {"library": "EB005-HoardingPermit", "root": "HoardingPermit"},
		"items": [
			{"model": "permit.xmi"},
			{"name": "annotated", "model": "permit.xmi", "annotate": true},
			{"model": "permit2.xmi", "target": "jsonschema"}
		]
	}`
	batch := buildJobZip(t, manifest, map[string][]byte{
		"permit.xmi":  model,
		"permit2.xmi": model,
	})

	doc, rec := postJob(t, h, batch, "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", rec.Code, rec.Body.String())
	}
	if doc.Name != "migration" || doc.Priority != 3 || doc.Total != 3 {
		t.Fatalf("job doc: %+v", doc)
	}
	if doc.Items[0].Name != "permit.xmi" || doc.Items[1].Name != "annotated" {
		t.Fatalf("item names: %+v", doc.Items)
	}
	final := waitJobState(t, h, doc.ID, jobs.Completed)
	if final.Done != 3 || final.Failed != 0 {
		t.Fatalf("final: %+v", final)
	}

	// The outer archive holds one inner archive per item plus the
	// summary; each inner archive matches the synchronous response for
	// the item's effective options.
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+doc.ID+"/result", nil)
	res := httptest.NewRecorder()
	h.ServeHTTP(res, req)
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d", res.Code)
	}
	outer := readZip(t, res.Body.Bytes())
	if len(outer) != 4 {
		t.Fatalf("outer entries: %v", keys(outer))
	}
	// The outer archive is what archive/zip writes for its entries.
	zr, err := zip.NewReader(bytes.NewReader(res.Body.Bytes()), int64(res.Body.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var entries archive
	for _, f := range zr.File {
		entries.files = append(entries.files, schemacache.NewFile(f.Name, outer[f.Name]))
	}
	entries.last, entries.files = entries.files[len(entries.files)-1], entries.files[:len(entries.files)-1]
	if !bytes.Equal(res.Body.Bytes(), oracleArchive(t, entries)) {
		t.Error("outer archive differs from the archive/zip rendering of its entries")
	}
	for i, q := range []string{
		docQuery,
		docQuery + "&annotate=true",
		docQuery + "&target=jsonschema",
	} {
		sync := postGenerate(t, h, model, q)
		if sync.Code != http.StatusOK {
			t.Fatalf("sync %s = %d", q, sync.Code)
		}
		var inner []byte
		for name, data := range outer {
			if strings.HasPrefix(name, fmt.Sprintf("%03d-", i+1)) {
				inner = data
			}
		}
		if inner == nil {
			t.Fatalf("no outer entry for item %d: %v", i+1, keys(outer))
		}
		if !bytes.Equal(inner, sync.Body.Bytes()) {
			t.Fatalf("item %d archive differs from sync response for %s", i+1, q)
		}
	}

	// Per-item fetch answers the inner archive directly.
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+doc.ID+"/result?item=2", nil)
	res = httptest.NewRecorder()
	h.ServeHTTP(res, req)
	sync := postGenerate(t, h, model, docQuery+"&annotate=true")
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("?item=2 archive differs from sync response")
	}
}

// TestJobsKillPointResume is the subsystem's kill-point acceptance
// test: a batch is interrupted mid-job by a crash (no checkpoint), the
// reopened manager resumes the unfinished remainder, and every result
// archive is byte-identical to the synchronous path.
func TestJobsKillPointResume(t *testing.T) {
	dir := t.TempDir()
	model := sampleXMI(t)

	// Block the second generation until released, so the crash lands
	// with item 1 durably done and item 2 mid-flight.
	var calls atomic.Int32
	gate := make(chan struct{})
	installHooks(t, nil, func() {
		if calls.Add(1) == 2 {
			<-gate
		}
	})

	s1, mgr1 := newJobServer(t, dir, Config{}, jobs.Config{Workers: 1})
	h1 := s1.Handler()
	manifest := `{
		"defaults": {"library": "EB005-HoardingPermit", "root": "HoardingPermit"},
		"items": [
			{"model": "a.xmi"},
			{"model": "a.xmi", "annotate": true},
			{"model": "a.xmi", "style": "composite"}
		]
	}`
	doc, rec := postJob(t, h1, buildJobZip(t, manifest, map[string][]byte{"a.xmi": model}), "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", rec.Code, rec.Body.String())
	}

	// Wait for item 1's durable completion (item 2 is then parked on
	// the gate inside the generate hook).
	deadline := time.Now().Add(30 * time.Second)
	for {
		d, code := getJob(t, h1, doc.ID)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d", code)
		}
		if d.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("item 1 never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash: cancel workers, release the parked generation (its context
	// is already dead, so it aborts without a durable record), close the
	// store without a checkpoint.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	mgr1.Kill()

	// Reopen on the same directory: the job recovers with item 1 done
	// and the rest pending, then runs to completion.
	testGenerateHook = nil
	s2, mgr2 := newJobServer(t, dir, Config{}, jobs.Config{Workers: 2})
	defer mgr2.Close(context.Background())
	h2 := s2.Handler()

	d, code := getJob(t, h2, doc.ID)
	if code != http.StatusOK {
		t.Fatalf("GET job after restart = %d", code)
	}
	if d.Done < 1 || d.Items[0].Status != string(jobs.ItemDone) {
		t.Fatalf("recovered job lost item 1: %+v", d)
	}
	final := waitJobState(t, h2, doc.ID, jobs.Completed)
	if final.Done != 3 || final.Failed != 0 {
		t.Fatalf("resumed job: %+v", final)
	}

	// Every item archive — the pre-crash one and the resumed ones — is
	// byte-identical to the synchronous response.
	for i, q := range []string{
		docQuery,
		docQuery + "&annotate=true",
		docQuery + "&style=composite",
	} {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%s/result?item=%d", doc.ID, i+1), nil)
		res := httptest.NewRecorder()
		h2.ServeHTTP(res, req)
		if res.Code != http.StatusOK {
			t.Fatalf("result item %d = %d", i+1, res.Code)
		}
		sync := postGenerate(t, h2, model, q)
		if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
			t.Fatalf("item %d archive differs from sync after resume", i+1)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    int64
	event string
	data  jobs.Event
}

// readSSE parses a complete SSE stream.
func readSSE(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
}

// TestJobsSSEMonotonicPerLibraryProgress watches a job live over SSE
// and asserts the stream's ordering contract: strictly monotonic event
// IDs, a queued prelude, per-library start/done pairs from the
// generator's status lines, and a terminal completion event.
func TestJobsSSEMonotonicPerLibraryProgress(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 1})
	defer mgr.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	model := sampleXMI(t)

	// Hold the generation until the SSE watcher is attached, so the
	// stream is observed live, not replayed.
	gate := make(chan struct{})
	installHooks(t, nil, func() { <-gate })

	res, err := http.Post(ts.URL+"/v1/jobs?"+docQuery, "application/xml", bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	var doc api.Job
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}

	stream, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(gate)
	events := readSSE(t, bufio.NewReader(stream.Body))

	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].event != jobs.EventQueued {
		t.Fatalf("first event %q", events[0].event)
	}
	last := events[len(events)-1]
	if last.event != jobs.EventTerminal || last.data.State != jobs.Completed {
		t.Fatalf("terminal event: %+v", last)
	}

	var prev int64
	libStart := regexp.MustCompile(`^processing (\S+) (\S+)$`)
	libDone := regexp.MustCompile(`^emitted \d+ definition\(s\) for (\S+) (\S+)$`)
	started := map[string]bool{}
	finished := map[string]bool{}
	for _, ev := range events {
		if ev.id <= prev {
			t.Fatalf("event IDs not monotonic: %d after %d", ev.id, prev)
		}
		prev = ev.id
		if ev.event != jobs.EventStatus {
			continue
		}
		if m := libStart.FindStringSubmatch(ev.data.Msg); m != nil {
			lib := m[1] + " " + m[2]
			if started[lib] {
				t.Fatalf("library %s started twice", lib)
			}
			started[lib] = true
		}
		if m := libDone.FindStringSubmatch(ev.data.Msg); m != nil {
			lib := m[1] + " " + m[2]
			if finished[lib] {
				t.Fatalf("library %s finished twice", lib)
			}
			finished[lib] = true
		}
	}
	if len(finished) == 0 {
		t.Fatal("no per-library completion messages in the stream")
	}
	for lib := range started {
		if !finished[lib] {
			t.Fatalf("library %s started but never finished", lib)
		}
	}

	// Replay: a reconnect after completion with ?after=0 returns the
	// full stream again, ending at the same terminal event.
	replay, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events?after=0")
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	replayed := readSSE(t, bufio.NewReader(replay.Body))
	if len(replayed) != len(events) {
		t.Fatalf("replay returned %d events, live stream had %d", len(replayed), len(events))
	}

	// Resume: Last-Event-ID mid-stream skips the already-seen prefix.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(events[2].id, 10))
	resumed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Body.Close()
	tail := readSSE(t, bufio.NewReader(resumed.Body))
	if len(tail) != len(events)-3 {
		t.Fatalf("resume returned %d events, want %d", len(tail), len(events)-3)
	}
	if tail[0].id != events[3].id {
		t.Fatalf("resume starts at %d, want %d", tail[0].id, events[3].id)
	}
}

// TestJobsSSEEndsOnDrain proves a live watcher does not hold graceful
// shutdown open: BeginDrain ends the stream.
func TestJobsSSEEndsOnDrain(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 1})
	defer mgr.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	installHooks(t, nil, func() { <-gate })
	defer close(gate)

	res, err := http.Post(ts.URL+"/v1/jobs?"+docQuery, "application/xml", bytes.NewReader(sampleXMI(t)))
	if err != nil {
		t.Fatal(err)
	}
	var doc api.Job
	json.NewDecoder(res.Body).Decode(&doc)
	res.Body.Close()

	stream, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, bufio.NewReader(stream.Body)) }()
	time.Sleep(20 * time.Millisecond) // let the watcher attach
	s.BeginDrain()
	select {
	case evs := <-done:
		// Stream ended without a terminal event — the job is still held
		// by the gate.
		for _, ev := range evs {
			if ev.event == jobs.EventTerminal {
				t.Fatal("unexpected terminal event during drain")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream survived BeginDrain")
	}
}

// TestJobsLifecycleErrors locks in the documented error rows: 404
// unknown job, 409 result-before-finish, 409 cancel-after-finish, 410
// expired, 400 bad batch options.
func TestJobsLifecycleErrors(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 1, Retention: time.Millisecond, SweepInterval: time.Hour})
	defer mgr.Close(context.Background())
	h := s.Handler()

	errCode := func(rec *httptest.ResponseRecorder) string {
		var e struct {
			Code string `json:"code"`
		}
		json.Unmarshal(rec.Body.Bytes(), &e)
		return e.Code
	}

	// 404 unknown job.
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/j999999", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound || errCode(rec) != "job" {
		t.Fatalf("unknown job: %d %s", rec.Code, rec.Body.String())
	}

	// 400 invalid item options, refused at submission.
	_, rec = postJob(t, h, sampleXMI(t), "library=EB005-HoardingPermit&target=nope")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad target: %d %s", rec.Code, rec.Body.String())
	}

	// Submit a gated job: result before finish answers 409.
	gate := make(chan struct{})
	installHooks(t, nil, func() { <-gate })
	doc, rec := postJob(t, h, sampleXMI(t), docQuery)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+doc.ID+"/result", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict || errCode(rec) != "not_finished" {
		t.Fatalf("result before finish: %d %s", rec.Code, rec.Body.String())
	}
	close(gate)
	waitJobState(t, h, doc.ID, jobs.Completed)

	// 409 cancel after finish.
	req = httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+doc.ID, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict || errCode(rec) != "finished" {
		t.Fatalf("cancel finished: %d %s", rec.Code, rec.Body.String())
	}

	// 410 after retention expiry (forced sweep well past the window).
	mgr.ExpireNow(time.Now().Add(time.Hour))
	for _, path := range []string{"/v1/jobs/" + doc.ID, "/v1/jobs/" + doc.ID + "/result"} {
		req = httptest.NewRequest(http.MethodGet, path, nil)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusGone || errCode(rec) != "expired" {
			t.Fatalf("expired %s: %d %s", path, rec.Code, rec.Body.String())
		}
	}
}

// TestJobsCancelOverHTTP cancels a running job and checks the document.
func TestJobsCancelOverHTTP(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 1})
	defer mgr.Close(context.Background())
	h := s.Handler()

	// An item that reaches generation before the cancel waits at the
	// gate; the gate opens once the cancel is accepted, so that item
	// must observe the cancellation instead of hanging the job.
	gate := make(chan struct{})
	installHooks(t, nil, func() { <-gate })
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	manifest := `{
		"defaults": {"library": "EB005-HoardingPermit", "root": "HoardingPermit"},
		"items": [{"model": "a.xmi"}, {"model": "a.xmi", "annotate": true}]
	}`
	doc, rec := postJob(t, h, buildJobZip(t, manifest, map[string][]byte{"a.xmi": sampleXMI(t)}), "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+doc.ID, nil)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("cancel = %d, body %s", rec2.Code, rec2.Body.String())
	}
	release()
	final := waitJobState(t, h, doc.ID, jobs.Canceled)
	if final.Failed != 2 {
		t.Fatalf("canceled job counts: %+v", final)
	}
}

// TestJobsNoGoroutineLeaks exercises submit/watch/complete/close and
// checks the goroutine count returns to baseline.
func TestJobsNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s, mgr := newJobServer(t, t.TempDir(), Config{}, jobs.Config{Workers: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		res, err := http.Post(ts.URL+"/v1/jobs?"+docQuery, "application/xml", bytes.NewReader(sampleXMI(t)))
		if err != nil {
			t.Fatal(err)
		}
		var doc api.Job
		json.NewDecoder(res.Body).Decode(&doc)
		res.Body.Close()
		stream, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		readSSE(t, bufio.NewReader(stream.Body))
		stream.Body.Close()
		if err := mgr.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
