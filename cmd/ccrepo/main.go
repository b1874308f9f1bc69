// Command ccrepo manages the persistent schema repository: the
// harmonisation workflow's publication step as a CLI. A publish runs
// the full pipeline — import, validate, generate — and stores the
// schema set as the next version of a subject, gated by the subject's
// compatibility policy; a rejected publish prints the machine-readable
// change list and exits 2.
//
// Usage:
//
//	ccrepo -dir DIR publish -subject S -library L [-root R] [-policy none|backward] [-style shared|composite] [-annotate] model.xmi
//	ccrepo -dir DIR check   -subject S model.xmi
//	ccrepo -dir DIR list    [SUBJECT]
//	ccrepo -dir DIR get     -subject S [-version N|latest] [-file NAME] [-out DIR]
//	ccrepo -dir DIR gc
//
// ccrepo is one client of ccserved's /v1/repo API. With -server URL the
// commands (except gc) run against a ccserved instance over HTTP, with
// automatic retries: exponential backoff with full jitter, honoring the
// server's Retry-After, bounded by -retries and -timeout. With -dir the
// same client and the same handlers run in process over the local
// directory; only gc calls the repository directly, since no endpoint
// serves it. Exit codes: 1 operational failure, 2 policy rejection, 3
// service unreachable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"github.com/go-ccts/ccts/internal/client"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/server"
)

// errIncompatible marks a publish or check stopped by the compatibility
// policy; main maps it to exit code 2 so CI pipelines can distinguish
// "breaking revision" from operational failures.
var errIncompatible = errors.New("revision is incompatible with the published version")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrepo:", err)
		switch {
		case errors.Is(err, errIncompatible):
			os.Exit(2)
		case client.IsConnectError(err):
			// The service never answered: distinct exit code so wrappers
			// can alert "ccserved down" instead of "publish failed".
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo", flag.ContinueOnError)
	dir := fs.String("dir", "ccrepo-data", "repository directory")
	defPolicy := fs.String("default-policy", "backward", "policy for subjects created without an explicit -policy (-dir only; ccserved's -repo-policy sets a server's)")
	var remote remoteOptions
	remote.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("usage: ccrepo [-dir DIR | -server URL] publish|check|list|get|gc ... (-h for details)")
	}
	policy, err := repo.ParsePolicy(*defPolicy)
	if err != nil {
		return err
	}
	explicitPolicy := false
	fs.Visit(func(f *flag.Flag) { explicitPolicy = explicitPolicy || f.Name == "default-policy" })
	switch {
	case remote.server != "" && explicitPolicy:
		return errors.New("-default-policy sets the default of a -dir repository; ccserved's -repo-policy sets the server's")
	case remote.server != "":
		return runRemote(&remote, rest, out)
	case remote.follow != "":
		return errors.New("-follow names read replicas of a -server; it needs -server")
	}

	r, err := repo.Open(*dir, repo.Config{DefaultPolicy: policy})
	if err != nil {
		return err
	}
	defer r.Close()

	if rest[0] == "gc" {
		res, err := r.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "reclaimed %d blob(s), %d byte(s)\n", res.Blobs, res.Bytes)
		return nil
	}
	// Everything else is the -server code against the same handlers,
	// served in process; the host name only labels the requests.
	remote.server = "http://ccrepo-dir"
	remote.http = &http.Client{Transport: inProcess{server.New(server.Config{Repo: r}).Handler()}}
	return runRemote(&remote, rest, out)
}

// inProcess serves each request with h, without a socket: every ccrepo
// answer is a bounded JSON document, schema file or zip, so a recorder
// holds it whole.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	// A RoundTripper must not modify req, and a handler may assume the
	// non-nil Body that net/http's server always supplies.
	in := req.Clone(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, in)
	return rec.Result(), nil
}

// pipelineFlags are the generation options shared by publish and check.
type pipelineFlags struct {
	subject  string
	library  string
	root     string
	style    string
	annotate bool
}

func (p *pipelineFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.subject, "subject", "", "subject (pipeline name, e.g. the library's base URN)")
	fs.StringVar(&p.library, "library", "", "library to generate schemas for")
	fs.StringVar(&p.root, "root", "", "root ABIE for DOCLibrary generation")
	fs.StringVar(&p.style, "style", "shared", "ASBIE style: shared or composite")
	fs.BoolVar(&p.annotate, "annotate", false, "embed CCTS annotations in the schemas")
}
