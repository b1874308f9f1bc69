package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/validate"
)

// newRepoServer builds a server backed by a fresh repository.
func newRepoServer(t *testing.T, cfg repo.Config) *Server {
	t.Helper()
	rp, err := repo.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp.Close() })
	return New(Config{Repo: rp})
}

// mutatedXMI renders the fixture after fn edited it.
func mutatedXMI(tb testing.TB, fn func(*fixture.HoardingPermit)) []byte {
	tb.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		tb.Fatal(err)
	}
	fn(f)
	var buf bytes.Buffer
	if err := ccts.ExportXMI(f.Model, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func breakingXMI(tb testing.TB) []byte {
	return mutatedXMI(tb, func(f *fixture.HoardingPermit) {
		enum := f.Model.FindENUM("CountryType_Code")
		enum.Literals = enum.Literals[1:] // drops USA
	})
}

func additiveXMI(tb testing.TB) []byte {
	return mutatedXMI(tb, func(f *fixture.HoardingPermit) {
		f.Model.FindENUM("CountryType_Code").AddLiteral("NZL", "New Zealand")
	})
}

// strayEnumXMI renders the fixture with an enumeration in its
// CCLibrary. Extraction drops the enumeration without an error, so only
// the profile's constraints on the imported model report it (CCL-3).
func strayEnumXMI(tb testing.TB) []byte {
	tb.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		tb.Fatal(err)
	}
	um := ccts.ToUML(f.Model)
	um.FindPackage(f.CCLib.Name).AddEnumeration("Stray", profile.StENUM)
	var buf bytes.Buffer
	if err := ccts.ExportUMLXMI(um, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestModelCheckRunsOnImportedModel: generate, publish, the compat dry
// run and validate all check the profile's constraints on the model the
// client sent, so the dropped enumeration is refused everywhere with
// CCL-3.
func TestModelCheckRunsOnImportedModel(t *testing.T) {
	h := newRepoServer(t, repo.Config{}).Handler()
	body := strayEnumXMI(t)
	if rec := repoRequest(t, h, http.MethodPost, "/v1/repo/subjects/published/versions?"+docQuery, sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("publish = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Valid    bool               `json:"valid"`
		Findings []validate.Finding `json:"findings"`
	}
	namesCCL3 := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		out.Findings = nil
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v: %s", what, err, rec.Body.String())
		}
		for _, f := range out.Findings {
			if f.Rule == "CCL-3" {
				return
			}
		}
		t.Errorf("%s: findings %v lack CCL-3", what, out.Findings)
	}
	for what, rec := range map[string]*httptest.ResponseRecorder{
		"generate":                      postGenerate(t, h, body, docQuery),
		"publish":                       repoRequest(t, h, http.MethodPost, publishPath(""), body),
		"compat on a new subject":       repoRequest(t, h, http.MethodPost, "/v1/repo/subjects/"+repoSubject+"/compat", body),
		"compat on a published subject": repoRequest(t, h, http.MethodPost, "/v1/repo/subjects/published/compat", body),
	} {
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s = %d, want 422; body %s", what, rec.Code, rec.Body.String())
		}
		namesCCL3(what, rec)
	}
	rec := repoRequest(t, h, http.MethodPost, "/v1/validate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("validate = %d: %s", rec.Code, rec.Body.String())
	}
	namesCCL3("validate", rec)
	if out.Valid {
		t.Error("validate answered valid: true")
	}
}

const repoSubject = "hoarding-permit"

func repoRequest(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func publishPath(extra string) string {
	return "/v1/repo/subjects/" + repoSubject + "/versions?" + docQuery + extra
}

func TestRepoEndpointsWithoutRepo(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{
		"/v1/repo/subjects",
		"/v1/repo/subjects/x/versions",
		"/v1/repo/subjects/x/versions/1",
	} {
		rec := repoRequest(t, s.Handler(), http.MethodGet, path, nil)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without repo = %d, want 404", path, rec.Code)
		}
	}
}

func TestRepoPublishAndFetch(t *testing.T) {
	s := newRepoServer(t, repo.Config{})
	h := s.Handler()
	body := sampleXMI(t)

	rec := repoRequest(t, h, http.MethodPost, publishPath(""), body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("publish = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Ccserved-Cache"); got != "miss" {
		t.Errorf("first publish cache header = %q, want miss", got)
	}
	var pub struct {
		Subject string       `json:"subject"`
		Version repo.Version `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Subject != repoSubject || pub.Version.Number != 1 || len(pub.Version.Files) == 0 {
		t.Errorf("publish response = %+v", pub)
	}
	if pub.Version.RootElement != "HoardingPermit" {
		t.Errorf("rootElement = %q", pub.Version.RootElement)
	}

	// Republishing identical content hits the schema cache and becomes
	// version 2 sharing every blob.
	rec = repoRequest(t, h, http.MethodPost, publishPath(""), body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("second publish = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Ccserved-Cache"); got != "hit" {
		t.Errorf("second publish cache header = %q, want hit", got)
	}

	// Subject listing.
	rec = repoRequest(t, h, http.MethodGet, "/v1/repo/subjects", nil)
	var subs []struct {
		Name     string `json:"name"`
		Policy   string `json:"policy"`
		Versions int    `json:"versions"`
		Latest   int    `json:"latest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Name != repoSubject || subs[0].Versions != 2 || subs[0].Latest != 2 || subs[0].Policy != "backward" {
		t.Errorf("subjects = %+v", subs)
	}

	// Version listing.
	rec = repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions", nil)
	var list struct {
		Policy   string         `json:"policy"`
		Versions []repo.Version `json:"versions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Versions) != 2 || list.Policy != "backward" {
		t.Errorf("versions = %+v", list)
	}

	// The stored zip is byte-identical to what /v1/generate serves for
	// the same input — the repository adds persistence, not drift.
	gen := postGenerate(t, h, body, docQuery)
	stored := repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/latest", nil)
	if stored.Code != http.StatusOK {
		t.Fatalf("fetch zip = %d", stored.Code)
	}
	if !bytes.Equal(stored.Body.Bytes(), gen.Body.Bytes()) {
		t.Error("stored zip differs from generated zip")
	}

	// Single-file fetch.
	rec = repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/1?file=EB005-HoardingPermit_0.4.xsd", nil)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("HoardingPermitType")) {
		t.Errorf("file fetch = %d", rec.Code)
	}
	rec = repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/1?file=nope.xsd", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown file = %d, want 404", rec.Code)
	}

	// Metadata fetch.
	rec = repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/2?format=json", nil)
	var meta struct {
		Version repo.Version `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Version.Number != 2 || meta.Version.InputSHA256 == "" {
		t.Errorf("metadata = %+v", meta)
	}

	// Bad identifiers.
	if rec := repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/zero", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad number = %d, want 400", rec.Code)
	}
	if rec := repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/ghost/versions", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown subject = %d, want 404", rec.Code)
	}
}

func TestRepoPublishIncompatible409(t *testing.T) {
	s := newRepoServer(t, repo.Config{})
	h := s.Handler()
	if rec := repoRequest(t, h, http.MethodPost, publishPath(""), sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("seed publish = %d", rec.Code)
	}

	rec := repoRequest(t, h, http.MethodPost, publishPath(""), breakingXMI(t))
	if rec.Code != http.StatusConflict {
		t.Fatalf("breaking publish = %d, body %s", rec.Code, rec.Body.String())
	}
	var rej struct {
		Code    string `json:"code"`
		Against int    `json:"against"`
		Policy  string `json:"policy"`
		Changes []struct {
			Kind     string `json:"kind"`
			Element  string `json:"element"`
			Breaking bool   `json:"breaking"`
		} `json:"changes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != "incompatible" || rej.Against != 1 || rej.Policy != "backward" || len(rej.Changes) == 0 {
		t.Errorf("rejection = %+v", rej)
	}
	for _, c := range rej.Changes {
		if !c.Breaking {
			t.Errorf("409 change list contains non-breaking %+v", c)
		}
	}

	// Nothing was stored.
	vrec := repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions", nil)
	var list struct {
		Versions []repo.Version `json:"versions"`
	}
	json.Unmarshal(vrec.Body.Bytes(), &list)
	if len(list.Versions) != 1 {
		t.Errorf("%d versions after rejection, want 1", len(list.Versions))
	}
}

func TestRepoPublishPolicyNone(t *testing.T) {
	s := newRepoServer(t, repo.Config{})
	h := s.Handler()
	if rec := repoRequest(t, h, http.MethodPost, publishPath("&policy=none"), sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("seed publish = %d", rec.Code)
	}
	// The subject's policy is now none; a breaking revision publishes.
	if rec := repoRequest(t, h, http.MethodPost, publishPath(""), breakingXMI(t)); rec.Code != http.StatusCreated {
		t.Errorf("breaking publish under none = %d, body %s", rec.Code, rec.Body.String())
	}
	if rec := repoRequest(t, h, http.MethodPost, publishPath("&policy=sideways"), sampleXMI(t)); rec.Code != http.StatusBadRequest {
		t.Errorf("bad policy = %d, want 400", rec.Code)
	}
}

func TestRepoCompatDryRun(t *testing.T) {
	s := newRepoServer(t, repo.Config{})
	h := s.Handler()
	compatPath := "/v1/repo/subjects/" + repoSubject + "/compat"

	// Unknown subject: compatible (a publish would create it).
	rec := repoRequest(t, h, http.MethodPost, compatPath, sampleXMI(t))
	var res struct {
		Compatible bool `json:"compatible"`
		Against    int  `json:"against"`
		Changes    []struct {
			Breaking bool `json:"breaking"`
		} `json:"changes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !res.Compatible || res.Against != 0 {
		t.Errorf("new-subject check = %d %+v", rec.Code, res)
	}

	if rec := repoRequest(t, h, http.MethodPost, publishPath(""), sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("seed publish = %d", rec.Code)
	}

	rec = repoRequest(t, h, http.MethodPost, compatPath, breakingXMI(t))
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Compatible || res.Against != 1 {
		t.Errorf("breaking check = %+v", res)
	}
	hasBreaking := false
	for _, c := range res.Changes {
		hasBreaking = hasBreaking || c.Breaking
	}
	if !hasBreaking {
		t.Error("breaking check lists no breaking change")
	}

	rec = repoRequest(t, h, http.MethodPost, compatPath, additiveXMI(t))
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Compatible {
		t.Errorf("additive check = %+v", res)
	}

	// GET works too; garbage input is a 400.
	if rec := repoRequest(t, h, http.MethodGet, compatPath, additiveXMI(t)); rec.Code != http.StatusOK {
		t.Errorf("GET compat = %d", rec.Code)
	}
	if rec := repoRequest(t, h, http.MethodPost, compatPath, []byte("<junk")); rec.Code != http.StatusBadRequest {
		t.Errorf("junk compat = %d, want 400", rec.Code)
	}
}

func TestRepoDeleteAndGone(t *testing.T) {
	s := newRepoServer(t, repo.Config{})
	h := s.Handler()
	if rec := repoRequest(t, h, http.MethodPost, publishPath(""), sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("publish = %d", rec.Code)
	}

	rec := repoRequest(t, h, http.MethodDelete, "/v1/repo/subjects/"+repoSubject+"/versions/1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d, body %s", rec.Code, rec.Body.String())
	}
	if rec := repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/1", nil); rec.Code != http.StatusGone {
		t.Errorf("tombstoned fetch = %d, want 410", rec.Code)
	}
	// No live versions left: "latest" has nothing to resolve to.
	if rec := repoRequest(t, h, http.MethodGet, "/v1/repo/subjects/"+repoSubject+"/versions/latest", nil); rec.Code != http.StatusNotFound {
		t.Errorf("latest after delete = %d, want 404", rec.Code)
	}
	if rec := repoRequest(t, h, http.MethodDelete, "/v1/repo/subjects/"+repoSubject+"/versions/1", nil); rec.Code != http.StatusGone {
		t.Errorf("double delete = %d, want 410", rec.Code)
	}
	if rec := repoRequest(t, h, http.MethodDelete, "/v1/repo/subjects/ghost/versions/1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("delete unknown subject = %d, want 404", rec.Code)
	}
}

func TestHealthzIncludesRepoAndCache(t *testing.T) {
	s := newRepoServer(t, repo.Config{})
	h := s.Handler()
	if rec := repoRequest(t, h, http.MethodPost, publishPath(""), sampleXMI(t)); rec.Code != http.StatusCreated {
		t.Fatalf("publish = %d", rec.Code)
	}

	rec := repoRequest(t, h, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var doc struct {
		Status string `json:"status"`
		Cache  *struct {
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Repo *struct {
			Subjects   int     `json:"subjects"`
			Versions   int     `json:"versions"`
			Blobs      int64   `json:"blobs"`
			DedupRatio float64 `json:"dedupRatio"`
			Publishes  int64   `json:"publishes"`
		} `json:"repo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Cache == nil || doc.Repo == nil {
		t.Fatalf("healthz = %s", rec.Body.String())
	}
	if doc.Cache.Misses != 1 {
		t.Errorf("cache.misses = %d, want 1 (the publish's cold generation)", doc.Cache.Misses)
	}
	if doc.Repo.Subjects != 1 || doc.Repo.Versions != 1 || doc.Repo.Blobs == 0 || doc.Repo.Publishes != 1 {
		t.Errorf("repo stats = %+v", doc.Repo)
	}

	// Without a repository the section is absent but the endpoint works.
	plain := New(Config{})
	rec = repoRequest(t, plain.Handler(), http.MethodGet, "/healthz", nil)
	var bare map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &bare); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare["repo"]; ok {
		t.Error("healthz exposes a repo section without a repository")
	}
	if _, ok := bare["cache"]; !ok {
		t.Error("healthz lost its cache section")
	}

	// The Prometheus exposition carries the repo gauges.
	rec = repoRequest(t, h, http.MethodGet, "/metrics", nil)
	if !bytes.Contains(rec.Body.Bytes(), []byte("repo_publishes_total 1")) {
		t.Error("metrics exposition missing repo_publishes_total")
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("repo_subjects 1")) {
		t.Error("metrics exposition missing repo_subjects")
	}
}
