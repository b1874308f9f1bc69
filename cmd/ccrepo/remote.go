package main

// The client side of every command but gc: publish, check, list and
// get drive internal/client against ccserved's /v1/repo handlers —
// over HTTP with -server URL, or in process over the -dir repository.
// Every call rides the client's retry policy — exponential backoff
// with full jitter, the server's Retry-After honored — so a publish
// issued while the service is shedding load or briefly read-only
// succeeds once capacity or the disk comes back. Exit codes: 2 for a
// policy rejection, 3 when the service is unreachable (connection
// refused, DNS failure) after the retry budget.
//
// -follow adds read replicas: list, get and check fan out across the
// replicas first and fall back to the -server primary last, failing
// over on connection errors and 5xx/429 answers. A conclusive 4xx
// (unknown subject, bad parameters) ends the fan-out immediately —
// every instance serves the same bytes, so the verdict cannot change.
// Writes (publish) always go straight to -server.

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/client"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/retry"
)

// remoteOptions are the global client knobs.
type remoteOptions struct {
	server  string
	follow  string
	retries int
	timeout time.Duration
	apiKey  string
	// http carries the requests; nil dials the network (-server), -dir
	// serves them in process.
	http *http.Client
}

func (o *remoteOptions) register(fs *flag.FlagSet) {
	fs.StringVar(&o.server, "server", "", "ccserved base URL; when set, commands run against the service instead of a local -dir")
	fs.StringVar(&o.follow, "follow", "", "comma-separated read-replica URLs; list/get/check try them before -server, writes still go to -server")
	fs.IntVar(&o.retries, "retries", 4, "total attempts per remote request (first try included)")
	fs.DurationVar(&o.timeout, "timeout", 0, "overall budget per remote command (0 = none); propagated to the server")
	fs.StringVar(&o.apiKey, "api-key", "", "X-API-Key header for the server's per-client rate limiter")
}

// client builds one remote client for base.
func (o *remoteOptions) client(base string) *client.Client {
	return client.New(base, client.Options{
		HTTP:   o.http,
		APIKey: o.apiKey,
		Retry: retry.Policy{
			MaxAttempts: o.retries,
			OnRetry: func(attempt int, err error, delay time.Duration) {
				fmt.Fprintf(os.Stderr, "ccrepo: attempt %d failed (%v); retrying in %s\n", attempt, err, delay.Round(time.Millisecond))
			},
		},
	})
}

// newClients builds the primary client, the read fan-out and the
// command context. The fan-out tries each -follow replica in order and
// the primary last; with no -follow it is just the primary.
func (o *remoteOptions) newClients() (*client.Client, readFanout, context.Context, context.CancelFunc) {
	primary := o.client(o.server)
	var f readFanout
	for _, base := range strings.Split(o.follow, ",") {
		if base = strings.TrimSpace(base); base != "" {
			f = append(f, endpoint{base, o.client(base)})
		}
	}
	f = append(f, endpoint{o.server, primary})
	if o.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		return primary, f, ctx, cancel
	}
	return primary, f, context.Background(), func() {}
}

// readFanout routes a read across replicas first, primary last.
type readFanout []endpoint

// endpoint is one server of a fan-out, named by its base URL.
type endpoint struct {
	name string
	c    *client.Client
}

// failsOver reports whether the next endpoint could answer where this
// one did not: transport failures and overload/fault statuses. A
// permanent 4xx is the same verdict everywhere — replicas serve
// byte-identical state — so it ends the fan-out.
func failsOver(err error) bool {
	if client.IsConnectError(err) {
		return true
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return false
}

// fanDo runs op against each endpoint in order until one succeeds or a
// conclusive failure ends the chain.
func fanDo[T any](ctx context.Context, f readFanout, op func(context.Context, *client.Client) (T, error)) (T, error) {
	var zero T
	var last error
	for i, e := range f {
		res, err := op(ctx, e.c)
		if err == nil {
			return res, nil
		}
		last = err
		if ctx.Err() != nil || !failsOver(err) {
			return zero, err
		}
		if i < len(f)-1 {
			fmt.Fprintf(os.Stderr, "ccrepo: %s failed (%v); trying %s\n", e.name, err, f[i+1].name)
		}
	}
	return zero, last
}

// runRemote dispatches one subcommand through the client.
func runRemote(o *remoteOptions, rest []string, out io.Writer) error {
	primary, fan, ctx, cancel := o.newClients()
	defer cancel()
	switch rest[0] {
	case "publish":
		return remotePublish(ctx, primary, rest[1:], out)
	case "check":
		return remoteCheck(ctx, fan, rest[1:], out)
	case "list":
		return remoteList(ctx, fan, rest[1:], out)
	case "get":
		return remoteGet(ctx, fan, rest[1:], out)
	case "gc":
		return errors.New("gc runs against the repository directory; use -dir on the host that owns it, not -server")
	default:
		return fmt.Errorf("unknown subcommand %q (want publish, check, list, get or gc)", rest[0])
	}
}

func remotePublish(ctx context.Context, c *client.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo publish", flag.ContinueOnError)
	var p pipelineFlags
	p.register(fs)
	policyName := fs.String("policy", "", "set the subject's compatibility policy (none or backward); empty inherits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.subject == "" || p.library == "" || fs.NArg() != 1 {
		return errors.New("usage: ccrepo publish -subject S -library L [-root R] [-policy P] model.xmi")
	}
	input, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := c.Publish(ctx, p.subject, input, client.PublishParams{
		Library:  p.library,
		Root:     p.root,
		Style:    p.style,
		Annotate: p.annotate,
		Policy:   *policyName,
	})
	var ie *client.IncompatibleError
	if errors.As(err, &ie) {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		enc.Encode(ie)
		return fmt.Errorf("%w: %d breaking change(s) against version %d", errIncompatible, len(ie.Changes), ie.Against)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "published %s version %d (%d file(s), input %s)\n",
		res.Subject, res.Version.Number, len(res.Version.Files), res.Version.InputSHA256[:12])
	return nil
}

func remoteCheck(ctx context.Context, fan readFanout, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo check", flag.ContinueOnError)
	var p pipelineFlags
	p.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.subject == "" || fs.NArg() != 1 {
		return errors.New("usage: ccrepo check -subject S model.xmi")
	}
	input, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := fanDo(ctx, fan, func(ctx context.Context, c *client.Client) (*api.Compat, error) {
		return c.Check(ctx, p.subject, input)
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if !res.Compatible {
		return errIncompatible
	}
	return nil
}

func remoteList(ctx context.Context, fan readFanout, args []string, out io.Writer) error {
	if len(args) > 1 {
		return errors.New("usage: ccrepo list [SUBJECT]")
	}
	if len(args) == 0 {
		// Prefer the cluster-wide aggregate: against a shard cluster any
		// node answers with the merged view (plus which owners were
		// unreachable). A pre-aggregate server 404s; fall back to the
		// node-local listing.
		agg, err := fanDo(ctx, fan, func(ctx context.Context, c *client.Client) (*api.Aggregate, error) {
			return c.ListAll(ctx)
		})
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			var subs []repo.SubjectInfo
			subs, err = fanDo(ctx, fan, func(ctx context.Context, c *client.Client) ([]repo.SubjectInfo, error) {
				return c.Subjects(ctx)
			})
			agg = &api.Aggregate{}
			for _, s := range subs {
				agg.Subjects = append(agg.Subjects, api.AggregateSubject{SubjectInfo: s})
			}
		}
		if err != nil {
			return err
		}
		for _, u := range agg.Unreachable {
			fmt.Fprintf(os.Stderr, "ccrepo: shard %s (%s) unreachable: %s — listing is partial\n", u.ID, u.Addr, u.Error)
		}
		for _, s := range agg.Subjects {
			line := fmt.Sprintf("%-50s %-9s %3d version(s) latest %d", s.Name, s.Policy, s.Versions, s.Latest)
			if s.Shard != "" {
				line += "  shard " + s.Shard
			}
			fmt.Fprintln(out, line)
		}
		if agg.Shards > 1 {
			fmt.Fprintf(out, "%d subject(s) across %d shard(s) (%d reached)\n", len(agg.Subjects), agg.Shards, agg.Reached)
			return nil
		}
		fmt.Fprintf(out, "%d subject(s)\n", len(agg.Subjects))
		return nil
	}
	vl, err := fanDo(ctx, fan, func(ctx context.Context, c *client.Client) (*api.VersionList, error) {
		return c.Versions(ctx, args[0])
	})
	if err != nil {
		return err
	}
	for _, v := range vl.Versions {
		status := "live"
		if v.Deleted {
			status = "deleted"
		}
		fmt.Fprintf(out, "%3d  %-7s %2d file(s)  input %s\n", v.Number, status, len(v.Files), v.InputSHA256[:12])
	}
	return nil
}

func remoteGet(ctx context.Context, fan readFanout, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo get", flag.ContinueOnError)
	subject := fs.String("subject", "", "subject to read")
	version := fs.String("version", "latest", "version number or 'latest'")
	file := fs.String("file", "", "write one named schema file to stdout")
	outDir := fs.String("out", "", "write every schema file (and diagnostics.json) into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *subject == "" || fs.NArg() != 0 {
		return errors.New("usage: ccrepo get -subject S [-version N|latest] [-file NAME] [-out DIR]")
	}
	number := 0
	if *version != "latest" {
		n, err := strconv.Atoi(*version)
		if err != nil || n <= 0 {
			return fmt.Errorf("-version must be a positive integer or 'latest', got %q", *version)
		}
		number = n
	}

	if *file != "" {
		data, err := fanDo(ctx, fan, func(ctx context.Context, c *client.Client) ([]byte, error) {
			return c.File(ctx, *subject, number, *file)
		})
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err
	}
	if *outDir != "" {
		// The zip is the one response that carries the whole set plus
		// diagnostics.json in a single round-trip.
		data, err := fanDo(ctx, fan, func(ctx context.Context, c *client.Client) ([]byte, error) {
			return c.Zip(ctx, *subject, number)
		})
		if err != nil {
			return err
		}
		zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return fmt.Errorf("reading schema-set archive: %w", err)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		n := 0
		for _, zf := range zr.File {
			rc, err := zf.Open()
			if err != nil {
				return err
			}
			content, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return err
			}
			name := filepath.Base(zf.Name) // archive entries are flat; refuse traversal
			if err := os.WriteFile(filepath.Join(*outDir, name), content, 0o644); err != nil {
				return err
			}
			if name != "diagnostics.json" {
				n++
			}
		}
		fmt.Fprintf(out, "wrote %d file(s) to %s\n", n, *outDir)
		return nil
	}
	v, err := fanDo(ctx, fan, func(ctx context.Context, c *client.Client) (*repo.Version, error) {
		return c.Version(ctx, *subject, number)
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(api.Version{Subject: *subject, Version: *v})
}
