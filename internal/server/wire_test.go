package server

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/repo"
)

var updateWire = flag.Bool("update", false, "rewrite the wire goldens under testdata/wire")

// wireStep is one request of the recorded /v1 sequence.
type wireStep struct {
	name, method, path string
	body               []byte
}

// wireSequence is a fixed walk over the JSON answers of one
// repository-backed node: validation, generation, the compatibility dry
// run, publish (201, 409 and 422), the listings, version metadata,
// delete and the 410, 404 and 400 answers that follow.
func wireSequence(tb testing.TB) []wireStep {
	sample, broken := sampleXMI(tb), brokenModelXMI(tb)
	additive, breaking, stray := additiveXMI(tb), breakingXMI(tb), strayEnumXMI(tb)
	versions := "/v1/repo/subjects/" + repoSubject + "/versions"
	compat := "/v1/repo/subjects/" + repoSubject + "/compat"
	get, post := http.MethodGet, http.MethodPost
	return []wireStep{
		{"validate-valid", post, "/v1/validate", sample},
		{"validate-invalid", post, "/v1/validate", broken},
		{"generate-zip", post, "/v1/generate?" + docQuery, sample},
		{"generate-multipart", post, "/v1/generate?" + docQuery + "&format=multipart", sample},
		{"generate-422", post, "/v1/generate?library=NoNamespace", broken},
		{"generate-400", post, "/v1/generate", sample},
		{"subjects-empty", get, "/v1/repo/subjects", nil},
		{"aggregate-empty", get, "/v1/repo", nil},
		{"compat-new", post, compat, sample},
		{"publish-v1", post, versions + "?" + docQuery, sample},
		{"compat-same", post, compat, sample},
		{"compat-additive", post, compat, additive},
		{"compat-breaking", post, compat, breaking},
		{"publish-409", post, versions + "?" + docQuery, breaking},
		{"publish-v2", post, versions + "?" + docQuery, additive},
		{"publish-422", post, versions + "?" + docQuery, stray},
		{"versions", get, versions, nil},
		{"version-1-json", get, versions + "/1?format=json", nil},
		{"version-latest-json", get, versions + "/latest?format=json", nil},
		{"version-zip", get, versions + "/2", nil},
		{"subjects", get, "/v1/repo/subjects", nil},
		{"aggregate", get, "/v1/repo", nil},
		{"delete-1", http.MethodDelete, versions + "/1", nil},
		{"version-1-410", get, versions + "/1?format=json", nil},
		{"versions-404", get, "/v1/repo/subjects/unknown/versions", nil},
		{"version-400", get, versions + "/zero", nil},
	}
}

// replayWire runs the sequence against a fresh repository-backed server
// and hands each answer to fn.
func replayWire(t *testing.T, fn func(step wireStep, rec *httptest.ResponseRecorder)) {
	t.Helper()
	h := newRepoServer(t, repo.Config{}).Handler()
	for _, step := range wireSequence(t) {
		fn(step, repoRequest(t, h, step.method, step.path, step.body))
	}
}

// TestWireGoldens compares every answer of the sequence with the bytes
// recorded under testdata/wire: the status, the headers a client reads
// and the body. A JSON body is recorded verbatim; an archive is
// recorded as its SHA-256 plus the diagnostics.json it carries. Run
// with -update to re-record.
func TestWireGoldens(t *testing.T) {
	replayWire(t, func(step wireStep, rec *httptest.ResponseRecorder) {
		got := wireRecord(t, step, rec)
		path := filepath.Join("testdata", "wire", step.name+".golden")
		if *updateWire {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to record)", step.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: answer differs from %s\ngot:\n%s\nwant:\n%s", step.name, path, got, want)
		}
	})
}

// wireRecord renders one answer in the golden format.
func wireRecord(t *testing.T, step wireStep, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s\n%d\n", step.method, step.path, rec.Code)
	for _, k := range []string{"Content-Type", "X-Ccserved-Cache", "Location", "Retry-After"} {
		if v := rec.Header().Get(k); v != "" {
			fmt.Fprintf(&b, "%s: %s\n", k, v)
		}
	}
	b.WriteString("\n")
	body := rec.Body.Bytes()
	ct := rec.Header().Get("Content-Type")
	if ct == "application/json" {
		b.Write(body)
		return b.Bytes()
	}
	fmt.Fprintf(&b, "sha256 %x, %d bytes\n", sha256.Sum256(body), len(body))
	var diags []byte
	switch {
	case ct == "application/zip":
		diags = readZip(t, body)[diagnosticsName]
	case strings.HasPrefix(ct, "multipart/"):
		_, params, err := mime.ParseMediaType(ct)
		if err != nil {
			t.Fatal(err)
		}
		mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
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
			if p.FileName() == diagnosticsName {
				diags = data
			}
		}
	}
	fmt.Fprintf(&b, "%s: %s\n", diagnosticsName, diags)
	return b.Bytes()
}
