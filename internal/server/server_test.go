package server

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/backends"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/registry"
	"github.com/go-ccts/ccts/internal/validate"
)

func init() {
	// Panic stacks from the isolation tests would drown the test log.
	debugWriter = io.Discard
}

// sampleXMI renders the paper's example model (the figure-4/figure-2
// running example) as XMI request-body bytes.
func sampleXMI(tb testing.TB) []byte {
	tb.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ccts.ExportXMI(f.Model, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// brokenModelXMI renders a model that imports cleanly but fails
// validation (a library without a baseURN → SEM-NS-1 error).
func brokenModelXMI(tb testing.TB) []byte {
	tb.Helper()
	m := ccts.NewModel("Broken")
	biz := m.AddBusinessLibrary("Broken")
	lib := biz.AddLibrary(ccts.KindCCLibrary, "NoNamespace", "")
	if _, err := lib.AddACC("Thing"); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ccts.ExportXMI(m, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hookGuard serializes tests that install the package-level hooks.
var hookGuard sync.Mutex

func installHooks(t *testing.T, imp, gen func()) {
	hookGuard.Lock()
	testImportHook, testGenerateHook = imp, gen
	t.Cleanup(func() {
		testImportHook, testGenerateHook = nil, nil
		hookGuard.Unlock()
	})
}

func postGenerate(t *testing.T, h http.Handler, body []byte, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/generate?"+query, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const docQuery = "library=EB005-HoardingPermit&root=HoardingPermit"

// readZip extracts a zip response body into name → bytes.
func readZip(t *testing.T, body []byte) map[string][]byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[f.Name] = data
	}
	return out
}

func TestGenerateColdPath(t *testing.T) {
	s := New(Config{})
	rec := postGenerate(t, s.Handler(), sampleXMI(t), docQuery)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Ccserved-Cache"); got != "miss" {
		t.Errorf("cache header = %q, want miss", got)
	}
	files := readZip(t, rec.Body.Bytes())
	xsdCount := 0
	for name := range files {
		if strings.HasSuffix(name, ".xsd") {
			xsdCount++
		}
	}
	if xsdCount != 6 {
		t.Errorf("zip holds %d .xsd files, want 6 (got %v)", xsdCount, keys(files))
	}
	doc, ok := files["EB005-HoardingPermit_0.4.xsd"]
	if !ok || !bytes.Contains(doc, []byte("HoardingPermitType")) {
		t.Errorf("document schema missing or wrong: present=%v", ok)
	}
	var diags struct {
		RootElement string `json:"rootElement"`
	}
	if err := json.Unmarshal(files["diagnostics.json"], &diags); err != nil {
		t.Fatalf("diagnostics.json: %v", err)
	}
	if diags.RootElement != "HoardingPermit" {
		t.Errorf("rootElement = %q, want HoardingPermit", diags.RootElement)
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestGenerateCacheHit is the headline memoization contract: the second
// identical request performs no XMI import and no generation (asserted
// via the test hooks) and returns byte-identical bytes.
func TestGenerateCacheHit(t *testing.T) {
	var imports, gens atomic.Int64
	installHooks(t, func() { imports.Add(1) }, func() { gens.Add(1) })

	s := New(Config{})
	body := sampleXMI(t)
	cold := postGenerate(t, s.Handler(), body, docQuery)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status = %d: %s", cold.Code, cold.Body.String())
	}
	if imports.Load() != 1 || gens.Load() != 1 {
		t.Fatalf("cold path: imports=%d gens=%d, want 1/1", imports.Load(), gens.Load())
	}

	// A CRLF re-save of the same document must hit the same entry.
	crlf := bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n"))
	hit := postGenerate(t, s.Handler(), crlf, docQuery)
	if hit.Code != http.StatusOK {
		t.Fatalf("hit status = %d: %s", hit.Code, hit.Body.String())
	}
	if got := hit.Header().Get("X-Ccserved-Cache"); got != "hit" {
		t.Errorf("cache header = %q, want hit", got)
	}
	if imports.Load() != 1 || gens.Load() != 1 {
		t.Errorf("hit path ran the pipeline: imports=%d gens=%d, want still 1/1", imports.Load(), gens.Load())
	}
	if !bytes.Equal(cold.Body.Bytes(), hit.Body.Bytes()) {
		t.Error("cache-hit response is not byte-identical to the cold response")
	}

	// Different options are a different content address.
	postGenerate(t, s.Handler(), body, docQuery+"&annotate=true")
	if gens.Load() != 2 {
		t.Errorf("annotate=true reused the unannotated entry (gens=%d)", gens.Load())
	}
}

// TestGenerateMultipartSharesCacheWithZip: for every target, the zip
// and multipart formats share one cache entry and carry the same files,
// and whichever format misses first, both bodies are the same bytes as
// on a server where the other one missed.
func TestGenerateMultipartSharesCacheWithZip(t *testing.T) {
	var gens atomic.Int64
	installHooks(t, nil, func() { gens.Add(1) })

	body := sampleXMI(t)
	for _, target := range backends.Targets() {
		query := docQuery + "&target=" + target
		zipFirst, multipartFirst := New(Config{}), New(Config{})
		gens.Store(0)
		zrec := postGenerate(t, zipFirst.Handler(), body, query)
		mrec := postGenerate(t, zipFirst.Handler(), body, query+"&format=multipart")
		if zrec.Code != http.StatusOK || mrec.Code != http.StatusOK {
			t.Fatalf("%s: zip status %d, multipart status %d: %s", target, zrec.Code, mrec.Code, mrec.Body.String())
		}
		if gens.Load() != 1 {
			t.Errorf("%s: formats did not share one cache entry: gens=%d", target, gens.Load())
		}
		mmiss := postGenerate(t, multipartFirst.Handler(), body, query+"&format=multipart")
		zhit := postGenerate(t, multipartFirst.Handler(), body, query)
		if got := mmiss.Header().Get("X-Ccserved-Cache") + "," + zhit.Header().Get("X-Ccserved-Cache"); got != "miss,hit" {
			t.Fatalf("%s: multipart-first outcomes %s, want miss,hit", target, got)
		}
		if !bytes.Equal(zhit.Body.Bytes(), zrec.Body.Bytes()) || !bytes.Equal(mmiss.Body.Bytes(), mrec.Body.Bytes()) {
			t.Errorf("%s: a body depends on which format missed first", target)
		}

		_, params, err := mime.ParseMediaType(mrec.Header().Get("Content-Type"))
		if err != nil {
			t.Fatal(err)
		}
		mr := multipart.NewReader(mrec.Body, params["boundary"])
		zipFiles := readZip(t, zrec.Body.Bytes())
		parts := 0
		for {
			p, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := zipFiles[p.FileName()]; !ok || !bytes.Equal(data, want) {
				t.Errorf("%s: part %q differs from zip entry (present=%v)", target, p.FileName(), ok)
			}
			parts++
		}
		if parts != len(zipFiles) {
			t.Errorf("%s: multipart has %d parts, zip has %d entries", target, parts, len(zipFiles))
		}
	}
}

// TestGenerateSingleflight: many concurrent identical requests observe
// exactly one underlying generation.
func TestGenerateSingleflight(t *testing.T) {
	var gens atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	installHooks(t, nil, func() {
		gens.Add(1)
		entered <- struct{}{}
		<-release
	})

	s := New(Config{MaxInFlight: 64})
	body := sampleXMI(t)
	h := s.Handler()

	const concurrent = 32
	var wg sync.WaitGroup
	codes := make([]int, concurrent)
	outcomes := make([]string, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postGenerate(t, h, body, docQuery)
			codes[i] = rec.Code
			outcomes[i] = rec.Header().Get("X-Ccserved-Cache")
		}(i)
	}
	// One request reaches the generation; the rest must be parked on
	// the in-flight call. Give them a moment to enqueue, then release.
	<-entered
	waitFor(t, func() bool { return s.cache.Stats().Coalesced == concurrent-1 })
	close(release)
	wg.Wait()

	if n := gens.Load(); n != 1 {
		t.Errorf("underlying generations = %d, want exactly 1", n)
	}
	miss, coalesced := 0, 0
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, codes[i])
		}
		switch outcomes[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		}
	}
	if miss != 1 || coalesced != concurrent-1 {
		t.Errorf("outcomes: %d miss, %d coalesced; want 1 and %d", miss, coalesced, concurrent-1)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateSaturation: with one admission slot held by a parked
// generation, a request for different content answers 503.
func TestGenerateSaturation(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	installHooks(t, func() {
		entered <- struct{}{}
		<-release
	}, nil)

	s := New(Config{MaxInFlight: 1})
	h := s.Handler()
	body := sampleXMI(t)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postGenerate(t, h, body, docQuery) }()
	<-entered // the slot is now held

	other := postGenerate(t, h, brokenModelXMI(t), "library=NoNamespace")
	if other.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated request: status = %d, want 503; body %s", other.Code, other.Body.String())
	}
	if other.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(other.Body.Bytes(), &errBody); err != nil || errBody.Code != "saturated" {
		t.Errorf("error body = %s (err %v), want code=saturated", other.Body.String(), err)
	}

	close(release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Errorf("parked request finished with %d", rec.Code)
	}
	if got := s.mx.Counter("ccserved_saturated_total", "").Value(); got != 1 {
		t.Errorf("saturated counter = %d, want 1", got)
	}
}

func TestGenerateErrorMapping(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	valid := sampleXMI(t)

	cases := []struct {
		name   string
		method string
		query  string
		body   []byte
		status int
		code   string
	}{
		{"method not allowed", http.MethodGet, docQuery, nil, http.StatusMethodNotAllowed, "method"},
		{"missing library param", http.MethodPost, "", valid, http.StatusBadRequest, "params"},
		{"bad style", http.MethodPost, docQuery + "&style=zigzag", valid, http.StatusBadRequest, "params"},
		{"malformed xml", http.MethodPost, docQuery, []byte("<xmi><unclosed"), http.StatusBadRequest, "model"},
		{"unknown library", http.MethodPost, "library=Nope", smallValidXMI(t), http.StatusBadRequest, "params"},
		{"doc library without root", http.MethodPost, "library=EB005-HoardingPermit", valid, http.StatusBadRequest, "params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/v1/generate?"+tc.query, bytes.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", rec.Code, tc.status, rec.Body.String())
			}
			var errBody struct {
				Code  string `json:"code"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
				t.Fatalf("non-JSON error body %q: %v", rec.Body.String(), err)
			}
			if errBody.Code != tc.code {
				t.Errorf("code = %q (%s), want %q", errBody.Code, errBody.Error, tc.code)
			}
		})
	}
}

// smallValidXMI builds a minimal valid model: a single CC library with
// one ACC, for cases that need an importable model without the full
// sample's libraries.
func smallValidXMI(t *testing.T) []byte {
	t.Helper()
	m := ccts.NewModel("Tiny")
	biz := m.AddBusinessLibrary("Tiny")
	lib := biz.AddLibrary(ccts.KindCCLibrary, "Flat", "urn:test:flat")
	lib.Version = "1.0"
	if _, err := lib.AddACC("Thing"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ccts.ExportXMI(m, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerateLimitViolation400: a document exceeding the configured
// ingestion limits is the client's defect — 400 with code "limit".
func TestGenerateLimitViolation400(t *testing.T) {
	s := New(Config{Limits: limits.Limits{MaxInputBytes: 1 << 20, MaxDepth: 4}})
	rec := postGenerate(t, s.Handler(), sampleXMI(t), docQuery)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", rec.Code, rec.Body.String())
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil || errBody.Code != "limit" {
		t.Errorf("error body = %s, want code=limit", rec.Body.String())
	}
}

func TestGenerateValidationErrors422(t *testing.T) {
	s := New(Config{})
	rec := postGenerate(t, s.Handler(), brokenModelXMI(t), "library=NoNamespace")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", rec.Code, rec.Body.String())
	}
	var errBody struct {
		Code     string             `json:"code"`
		Findings []validate.Finding `json:"findings"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.Code != "validation" || len(errBody.Findings) == 0 {
		t.Fatalf("body = %s, want validation findings", rec.Body.String())
	}
	found := false
	for _, f := range errBody.Findings {
		if f.Rule == "SEM-NS-1" && f.Severity == validate.Error {
			found = true
		}
	}
	if !found {
		t.Errorf("findings %v lack SEM-NS-1 error", errBody.Findings)
	}
}

func TestGenerateBodyTooLarge413(t *testing.T) {
	s := New(Config{Limits: limits.Limits{MaxInputBytes: 128}})
	rec := postGenerate(t, s.Handler(), sampleXMI(t), docQuery)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413; body %s", rec.Code, rec.Body.String())
	}
}

// unreadBody fails the test when the handler reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body of an over-limit Content-Length was read")
	return 0, io.EOF
}

// lengthless hides a reader's length, so the request has an unknown
// Content-Length, as a chunked body does.
type lengthless struct{ io.Reader }

// TestReadBodyLimits covers readBody on the routes that share it: a
// declared length over the limit answers 413 before any byte is read,
// a body of unknown length over it answers 413 once read, a body of
// exactly the limit is accepted either way, a declared length of 0 is
// read as unknown, and a body that ends short of its Content-Length
// answers 400. The error texts are those of the io.ReadAll reader.
func TestReadBodyLimits(t *testing.T) {
	body := sampleXMI(t)
	limit := int64(len(body))
	s := New(Config{Limits: limits.Limits{MaxInputBytes: limit}})
	h := s.Handler()
	over := append(bytes.Clone(body), ' ')
	tooLarge := fmt.Sprintf("request body exceeds %d bytes", limit)
	for _, path := range []string{"/v1/generate?" + docQuery, "/v1/validate"} {
		cases := []struct {
			name    string
			body    io.Reader
			length  int64 // -1: unknown
			status  int
			code    string
			message string
		}{
			{"declared over limit", unreadBody{t}, limit + 1, http.StatusRequestEntityTooLarge, "limit", tooLarge},
			{"unknown length over limit", lengthless{bytes.NewReader(over)}, -1, http.StatusRequestEntityTooLarge, "limit", tooLarge},
			{"declared at limit", bytes.NewReader(body), limit, http.StatusOK, "", ""},
			{"unknown length at limit", lengthless{bytes.NewReader(body)}, -1, http.StatusOK, "", ""},
			{"zero declared, as a client request may", bytes.NewReader(body), 0, http.StatusOK, "", ""},
			{"shorter than declared", bytes.NewReader(body[:100]), 101, http.StatusBadRequest, "body", "unexpected EOF"},
		}
		for _, tc := range cases {
			req := httptest.NewRequest(http.MethodPost, path, tc.body)
			req.ContentLength = tc.length
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Errorf("%s %s: status %d, want %d: %s", path, tc.name, rec.Code, tc.status, rec.Body.String())
				continue
			}
			if tc.code == "" {
				continue
			}
			var e struct{ Error, Code string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != tc.code || e.Error != tc.message {
				t.Errorf("%s %s: error %+v (%v), want code %q message %q", path, tc.name, e, err, tc.code, tc.message)
			}
		}
	}
}

// TestReadBodyChunkedOverLimitOnTheWire: a chunked body over the limit
// answers 413 over a real connection too.
func TestReadBodyChunkedOverLimitOnTheWire(t *testing.T) {
	ts := httptest.NewServer(New(Config{Limits: limits.Limits{MaxInputBytes: 1024}}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/generate?"+docQuery, "application/xml", lengthless{bytes.NewReader(make([]byte, 4096))})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error, Code string }
	json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != "limit" || e.Error != "request body exceeds 1024 bytes" {
		t.Fatalf("status %d, error %+v; want 413 limit", resp.StatusCode, e)
	}
}

// TestReadDeclared: readDeclared returns exactly the declared bytes in
// a buffer of that size, below, at and past readChunk, and reports a
// body that ends short of its length as unexpected EOF.
func TestReadDeclared(t *testing.T) {
	data := make([]byte, 3*readChunk+5)
	rand.New(rand.NewSource(1)).Read(data)
	for _, n := range []int{1, 100, readChunk, readChunk + 1, 2 * readChunk, len(data)} {
		got, err := readDeclared(iotest.HalfReader(bytes.NewReader(data)), int64(n))
		if err != nil || !bytes.Equal(got, data[:n]) || cap(got) != n {
			t.Errorf("n=%d: %d bytes (cap %d), err %v; want the first %d bytes", n, len(got), cap(got), err, n)
		}
		if _, err := readDeclared(bytes.NewReader(data[:n-1]), int64(n)); err != io.ErrUnexpectedEOF {
			t.Errorf("n=%d, one byte short: err %v, want unexpected EOF", n, err)
		}
	}
}

// stallingBody sends prefix and then stalls, as a client may that
// declares a large Content-Length and sends a few bytes: its next Read
// closes stalled, and returns the error of a dropped connection once
// release is closed.
type stallingBody struct {
	prefix           []byte
	stalled, release chan struct{}
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if len(b.prefix) > 0 {
		n := copy(p, b.prefix)
		b.prefix = b.prefix[n:]
		return n, nil
	}
	close(b.stalled)
	<-b.release
	return 0, io.ErrUnexpectedEOF
}

// TestReadBodyStalledClientHoldsLittle: a request that declares
// MaxInputBytes and sends a few bytes makes the server allocate far
// less than the declared length while it waits for the rest.
func TestReadBodyStalledClientHoldsLittle(t *testing.T) {
	const limit = 64 << 20
	h := New(Config{Limits: limits.Limits{MaxInputBytes: limit}}).Handler()
	sent := []byte("<?xml version")
	body := &stallingBody{prefix: sent, stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/generate?"+docQuery, body)
	req.ContentLength = limit
	rec := httptest.NewRecorder()
	var before, stalled runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-body.stalled:
	case <-done:
		t.Fatalf("answered %d without waiting for the declared body", rec.Code)
	}
	runtime.ReadMemStats(&stalled)
	close(body.release)
	<-done
	if got := stalled.TotalAlloc - before.TotalAlloc; got > limit/16 {
		t.Errorf("allocated %d bytes for a client that declared %d and sent %d", got, limit, len(sent))
	}
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d once the client went away, want 400: %s", rec.Code, rec.Body.String())
	}
}

func TestGenerateRequestTimeout504(t *testing.T) {
	installHooks(t, func() { time.Sleep(50 * time.Millisecond) }, nil)
	s := New(Config{RequestTimeout: time.Millisecond})
	rec := postGenerate(t, s.Handler(), sampleXMI(t), docQuery)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504; body %s", rec.Code, rec.Body.String())
	}
}

// TestGeneratePanicIsolation: a panicking generation answers a
// structured 500 and the server keeps serving.
func TestGeneratePanicIsolation(t *testing.T) {
	fail := atomic.Bool{}
	fail.Store(true)
	installHooks(t, nil, func() {
		if fail.Load() {
			panic("injected generation fault")
		}
	})

	s := New(Config{})
	body := sampleXMI(t)
	rec := postGenerate(t, s.Handler(), body, docQuery)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", rec.Code, rec.Body.String())
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil || errBody.Code != "panic" {
		t.Errorf("error body = %s, want code=panic", rec.Body.String())
	}

	// Errors are not cached and the slot was released: the next request
	// succeeds.
	fail.Store(false)
	if rec := postGenerate(t, s.Handler(), body, docQuery); rec.Code != http.StatusOK {
		t.Errorf("post-panic request: status %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	if got := s.mx.Counter("ccserved_panics_total", "").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

func TestValidateEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	post := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/validate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := post(sampleXMI(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Valid    bool               `json:"valid"`
		Findings []validate.Finding `json:"findings"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Valid {
		t.Errorf("sample model reported invalid: %v", out.Findings)
	}

	rec = post(brokenModelXMI(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("broken model status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Valid || len(out.Findings) == 0 {
		t.Errorf("broken model: valid=%v findings=%v, want invalid with findings", out.Valid, out.Findings)
	}

	if rec := post([]byte("not xml at all <")); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rec.Code)
	}
}

func TestRegistrySearchEndpoint(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	store := registry.NewGuarded(nil)
	store.RegisterModel(f.Model)

	s := New(Config{Registry: store})
	h := s.Handler()

	get := func(query string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/registry/search?"+query, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := get("q=hoarding")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var entries []registry.Entry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries for 'hoarding'")
	}
	for _, e := range entries {
		if !strings.Contains(strings.ToLower(e.DEN), "hoarding") &&
			!strings.Contains(strings.ToLower(e.Name), "hoarding") &&
			!strings.Contains(strings.ToLower(e.Definition), "hoarding") {
			t.Errorf("entry %q does not match query", e.DEN)
		}
	}

	if rec := get("q=x&context=NotACategory=1"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad context: status %d, want 400", rec.Code)
	}

	noReg := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/registry/search?q=x", nil)
	rec2 := httptest.NewRecorder()
	noReg.Handler().ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotFound {
		t.Errorf("no registry: status %d, want 404", rec2.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	postGenerate(t, h, sampleXMI(t), docQuery)
	postGenerate(t, h, sampleXMI(t), docQuery)

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var health struct {
		Status string `json:"status"`
		Cache  struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Cache.Hits != 1 || health.Cache.Misses != 1 {
		t.Errorf("healthz = %s, want ok with 1 hit / 1 miss", rec.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	expo := rec.Body.String()
	// Two generates + healthz + this metrics scrape itself.
	for _, want := range []string{
		"ccserved_requests_total 4",
		"schemacache_hits_total 1",
		"schemacache_misses_total 1",
		"gen_emit_ops_total",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition lacks %q:\n%s", want, expo)
		}
	}
}

// TestGracefulDrainLeaksNoGoroutines runs real HTTP traffic against the
// handler, shuts the server down and verifies the goroutine count
// returns to its baseline.
func TestGracefulDrainLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{MaxInFlight: 8})
	ts := httptest.NewServer(s.Handler())
	body := sampleXMI(t)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/generate?"+docQuery, "application/xml", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheEvictionUnderByteBudget drives distinct models through a
// tiny cache and verifies the budget holds and evictions are counted.
func TestCacheEvictionUnderByteBudget(t *testing.T) {
	s := New(Config{CacheBytes: 40_000})
	h := s.Handler()
	base := sampleXMI(t)
	for i := 0; i < 6; i++ {
		// A distinct XML comment changes the content address without
		// changing the model.
		body := append(bytes.TrimSuffix(base, []byte("\n")),
			[]byte(fmt.Sprintf("\n<!-- variant %d -->\n", i))...)
		if rec := postGenerate(t, h, body, docQuery); rec.Code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	st := s.cache.Stats()
	if st.Bytes > 40_000 {
		t.Errorf("cache bytes = %d over budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions after %d distinct schema sets in a %d-byte cache (bytes=%d, entries=%d)",
			6, 40_000, st.Bytes, st.Entries)
	}
}
