package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/go-ccts/ccts/internal/schemacache"
)

// benchBody renders the paper's example model once per benchmark run.
func benchBody(b *testing.B) []byte {
	b.Helper()
	return sampleXMI(b)
}

// BenchmarkServeCacheHit measures the steady-state request latency of a
// memoized /v1/generate: content addressing plus response assembly,
// with no import and no emit. The acceptance bar is >= 10x below
// BenchmarkServeCacheMiss.
func BenchmarkServeCacheHit(b *testing.B) { benchHit(b, docQuery) }

// BenchmarkServeCacheHitMultipart is BenchmarkServeCacheHit answering
// multipart/mixed instead of a zip.
func BenchmarkServeCacheHitMultipart(b *testing.B) { benchHit(b, docQuery+"&format=multipart") }

// warmServer returns a server whose cache holds the answer to query.
func warmServer(b *testing.B, query string) (*Server, http.Handler, []byte) {
	b.Helper()
	s := New(Config{})
	h := s.Handler()
	body := benchBody(b)
	warm := httptest.NewRequest(http.MethodPost, "/v1/generate?"+query, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}
	b.SetBytes(int64(len(body)))
	return s, h, body
}

func benchHit(b *testing.B, query string) {
	s, h, body := warmServer(b, query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/generate?"+query, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	if st := s.cache.Stats(); st.Hits != int64(b.N) {
		b.Fatalf("hits = %d, want %d (cache not exercised)", st.Hits, b.N)
	}
}

// BenchmarkServeCacheHitParallel runs zip hits on one key from
// GOMAXPROCS goroutines at once, so the cache lock, the shared counters
// and the pooled body writers contend.
func BenchmarkServeCacheHitParallel(b *testing.B) {
	s, h, body := warmServer(b, docQuery)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/generate?"+docQuery, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
	b.StopTimer()
	if st := s.cache.Stats(); st.Misses != 1 {
		b.Fatalf("misses = %d, want only the warm-up's", st.Misses)
	}
}

// BenchmarkServeContentKey measures the content key of the bench body
// alone: canonicalization and SHA-256, the floor under every hit.
func BenchmarkServeContentKey(b *testing.B) {
	body := benchBody(b)
	params, aerr := parseGenParams(url.Values{"library": {"EB005-HoardingPermit"}, "root": {"HoardingPermit"}})
	if aerr != nil {
		b.Fatal(aerr.Message)
	}
	fp := params.fingerprint()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schemacache.Key(body, fp)
	}
}

// BenchmarkServeCacheMiss measures the cold path: every iteration
// carries a distinct content address (an XML comment variant), so the
// full import → validate → generate → serialize pipeline runs.
func BenchmarkServeCacheMiss(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	base := benchBody(b)
	b.SetBytes(int64(len(base)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := append(bytes.TrimSuffix(base, []byte("\n")),
			[]byte(fmt.Sprintf("\n<!-- variant %d -->\n", i))...)
		req := httptest.NewRequest(http.MethodPost, "/v1/generate?"+docQuery, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if st := s.cache.Stats(); st.Misses != int64(b.N) {
		b.Fatalf("misses = %d, want %d (unexpected hit)", st.Misses, b.N)
	}
}

// BenchmarkServeValidate measures the /v1/validate path (lenient import
// plus the full validation engine).
func BenchmarkServeValidate(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/validate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeEndToEnd drives real HTTP connections (listener,
// client, cache hits) to measure the wire-level request cost.
func BenchmarkServeEndToEnd(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := benchBody(b)
	client := ts.Client()
	url := ts.URL + "/v1/generate?" + docQuery
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/xml", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil {
			b.Fatal(cerr)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
