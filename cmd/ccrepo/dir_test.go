package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/server"
)

// TestDirAndServerRecordEqualVersions publishes one model with -dir and
// with -server: both run the same handlers, so the stored version
// records are equal, fingerprint included.
func TestDirAndServerRecordEqualVersions(t *testing.T) {
	dir := t.TempDir()
	model := writeXMI(t, dir, "model.xmi", nil)

	local := filepath.Join(dir, "local")
	if err := run(publishArgs(local, model), io.Discard); err != nil {
		t.Fatalf("-dir publish: %v", err)
	}
	lr, err := repo.Open(local, repo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	want, err := lr.Version(testSubject, 1)
	if err != nil {
		t.Fatal(err)
	}

	sr, err := repo.Open(filepath.Join(dir, "served"), repo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	srv := httptest.NewServer(server.New(server.Config{Repo: sr}).Handler())
	defer srv.Close()
	if err := run(remoteArgs(srv.URL, "publish",
		"-subject", testSubject, "-library", "EB005-HoardingPermit", "-root", "HoardingPermit",
		model), io.Discard); err != nil {
		t.Fatalf("-server publish: %v", err)
	}
	got, err := sr.Version(testSubject, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-server recorded %+v\n-dir recorded %+v", got, want)
	}
}

// TestPublishReportsFindings requires a rejected model's findings in
// the error of both modes, one per line in validate.Finding's format.
func TestPublishReportsFindings(t *testing.T) {
	dir := t.TempDir()
	model := writeXMI(t, dir, "invalid.xmi", func(f *fixture.HoardingPermit) {
		f.Common.BaseURN = "" // LIB-1 + SEM-NS-1
	})
	for mode, args := range map[string][]string{
		"-dir": publishArgs(filepath.Join(dir, "repo"), model),
		"-server": remoteArgs(startServed(t), "publish",
			"-subject", testSubject, "-library", "EB005-HoardingPermit", "-root", "HoardingPermit",
			model),
	} {
		err := run(args, io.Discard)
		if err == nil {
			t.Errorf("%s publish of an invalid model succeeded", mode)
			continue
		}
		for _, rule := range []string{"SEM-NS-1", "LIB-1"} {
			if !strings.Contains(err.Error(), "\nerror ["+rule+"] ") {
				t.Errorf("%s publish error lacks %s:\n%v", mode, rule, err)
			}
		}
	}
}

// TestPublishWithoutRootListsRoots: a DOCLibrary publish without -root
// names the ABIEs to choose from, in both modes.
func TestPublishWithoutRootListsRoots(t *testing.T) {
	dir := t.TempDir()
	model := writeXMI(t, dir, "model.xmi", nil)
	for mode, args := range map[string][]string{
		"-dir": {"-dir", filepath.Join(dir, "repo"), "publish",
			"-subject", testSubject, "-library", "EB005-HoardingPermit", model},
		"-server": remoteArgs(startServed(t), "publish",
			"-subject", testSubject, "-library", "EB005-HoardingPermit", model),
	} {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "available: [HoardingPermit") {
			t.Errorf("%s publish without -root = %v, want the available roots", mode, err)
		}
	}
}

func TestFollowNeedsServer(t *testing.T) {
	err := run([]string{"-dir", t.TempDir(), "-follow", "http://localhost:1", "list"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-server") {
		t.Fatalf("-follow without -server = %v, want a usage error naming -server", err)
	}
}

// TestDefaultPolicyNeedsDir: -default-policy is parsed before ccrepo
// dispatches to a server, and setting it with -server is a usage error,
// since ccserved's -repo-policy sets the server's default. Neither
// invocation reaches the server.
func TestDefaultPolicyNeedsDir(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer srv.Close()
	for value, want := range map[string]string{"strict": "unknown compatibility policy", "none": "-repo-policy"} {
		err := run([]string{"-server", srv.URL, "-default-policy", value, "list"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-default-policy %s with -server = %v, want an error naming %q", value, err, want)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the server saw %d request(s), want none", n)
	}
}

// TestListWithoutAggregate lists a server that predates GET /v1/repo:
// the 404 falls back to the subject listing, printed as the aggregate
// would print it.
func TestListWithoutAggregate(t *testing.T) {
	r, err := repo.Open(t.TempDir(), repo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := server.New(server.Config{Repo: r}).Handler()
	current := httptest.NewServer(h)
	defer current.Close()
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/repo" {
			http.NotFound(w, req)
			return
		}
		h.ServeHTTP(w, req)
	}))
	defer old.Close()
	model := writeXMI(t, t.TempDir(), "model.xmi", nil)
	if err := run(remoteArgs(current.URL, "publish",
		"-subject", testSubject, "-library", "EB005-HoardingPermit", "-root", "HoardingPermit",
		model), io.Discard); err != nil {
		t.Fatal(err)
	}

	var want, got bytes.Buffer
	if err := run(remoteArgs(current.URL, "list"), &want); err != nil {
		t.Fatal(err)
	}
	if err := run(remoteArgs(old.URL, "list"), &got); err != nil {
		t.Fatalf("list against a server without the aggregate: %v", err)
	}
	if got.String() != want.String() || !strings.Contains(got.String(), testSubject) {
		t.Errorf("fallback listing:\n%s\nwant:\n%s", &got, &want)
	}
}

// TestFollowFailsOver reads through a -follow list whose replica is
// down: the read fails over to the -server primary, and blank entries
// are skipped.
func TestFollowFailsOver(t *testing.T) {
	url := startServed(t)
	model := writeXMI(t, t.TempDir(), "model.xmi", nil)
	if err := run(remoteArgs(url, "publish",
		"-subject", testSubject, "-library", "EB005-HoardingPermit", "-root", "HoardingPermit",
		model), io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-server", url, "-follow", "http://127.0.0.1:1, ,", "-retries", "1", "list", testSubject}, &out)
	if err != nil {
		t.Fatalf("list with a dead replica: %v", err)
	}
	if !strings.Contains(out.String(), "live") {
		t.Errorf("list output = %q, want the published version", &out)
	}
}
