// Command ccjobs drives the asynchronous batch pipeline of a ccserved
// instance: submit a batch of XMI models, watch its live progress, and
// collect the result archives. It is the /v1/jobs counterpart to
// ccrepo's synchronous remote mode, with the same retry discipline:
// exponential backoff with full jitter, the server's Retry-After
// honored, bounded by -retries and -timeout.
//
// Usage:
//
//	ccjobs -server URL submit [-name N] [-priority P] -library L [-root R] [-style shared|composite] [-annotate] [-target xsd|jsonschema|proto3] [-watch] model.xmi
//	ccjobs -server URL submit [-watch] batch.zip        (job.json manifest + models)
//	ccjobs -server URL status [JOB]
//	ccjobs -server URL watch  JOB [-after ID]
//	ccjobs -server URL result JOB [-item N] [-out FILE]
//	ccjobs -server URL cancel JOB
//
// watch streams the job's server-sent events and reconnects with
// Last-Event-ID across server restarts, so a crash mid-batch costs a
// condensed replay, never a gap. Exit codes: 1 operational failure,
// 2 job failed or canceled, 3 service unreachable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/client"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/retry"
)

// errJobFailed marks a watched or fetched job that settled failed or
// canceled; main maps it to exit code 2 so pipelines can distinguish
// "batch produced failures" from operational errors.
var errJobFailed = errors.New("job did not complete")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccjobs:", err)
		switch {
		case errors.Is(err, errJobFailed):
			os.Exit(2)
		case client.IsConnectError(err):
			os.Exit(3)
		}
		os.Exit(1)
	}
}

type options struct {
	server  string
	retries int
	timeout time.Duration
	apiKey  string
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.server, "server", "", "ccserved base URL (required)")
	fs.IntVar(&o.retries, "retries", 4, "total attempts per request (first try included)")
	fs.DurationVar(&o.timeout, "timeout", 0, "overall budget per command (0 = none); propagated to the server")
	fs.StringVar(&o.apiKey, "api-key", "", "X-API-Key header for the server's per-client rate limiter")
}

func (o *options) client() *client.Client {
	return client.New(o.server, client.Options{
		APIKey: o.apiKey,
		Retry: retry.Policy{
			MaxAttempts: o.retries,
			OnRetry: func(attempt int, err error, delay time.Duration) {
				fmt.Fprintf(os.Stderr, "ccjobs: attempt %d failed (%v); retrying in %s\n", attempt, err, delay.Round(time.Millisecond))
			},
		},
	})
}

func (o *options) context() (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(context.Background(), o.timeout)
	}
	return context.WithCancel(context.Background())
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccjobs", flag.ContinueOnError)
	var opts options
	opts.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("usage: ccjobs -server URL submit|status|watch|result|cancel ... (-h for details)")
	}
	if opts.server == "" {
		return errors.New("-server is required")
	}
	switch rest[0] {
	case "submit":
		return cmdSubmit(&opts, rest[1:], out)
	case "status":
		return cmdStatus(&opts, rest[1:], out)
	case "watch":
		return cmdWatch(&opts, rest[1:], out)
	case "result":
		return cmdResult(&opts, rest[1:], out)
	case "cancel":
		return cmdCancel(&opts, rest[1:], out)
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

func cmdSubmit(o *options, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccjobs submit", flag.ContinueOnError)
	name := fs.String("name", "", "job label (defaults to the model file name)")
	priority := fs.Int("priority", 0, "queue priority; higher runs first")
	library := fs.String("library", "", "library to generate (raw XMI submissions)")
	root := fs.String("root", "", "document root ABIE; omit for a library schema")
	style := fs.String("style", "", "schema style: shared or composite")
	annotate := fs.Bool("annotate", false, "embed CCTS annotations in the schema documentation")
	target := fs.String("target", "", "generation target: xsd (default), jsonschema or proto3")
	watch := fs.Bool("watch", false, "stream progress until the job settles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: ccjobs submit [flags] model.xmi|batch.zip")
	}
	path := fs.Arg(0)
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ctx, cancel := o.context()
	defer cancel()
	c := o.client()

	var job *api.Job
	if isZip(body) {
		job, err = c.SubmitJobZip(ctx, body)
	} else {
		if *library == "" {
			return errors.New("-library is required for a raw XMI submission")
		}
		job, err = c.SubmitJobModel(ctx, body, client.JobParams{
			Name:     *name,
			Priority: *priority,
			Library:  *library,
			Root:     *root,
			Style:    *style,
			Annotate: *annotate,
			Target:   *target,
		})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "accepted %s (%d item(s))\n", job.ID, job.Total)
	if !*watch {
		return nil
	}
	return watchJob(ctx, c, job.ID, 0, out)
}

// isZip sniffs the local-file-header magic of a zip archive.
func isZip(b []byte) bool {
	return len(b) >= 4 && b[0] == 'P' && b[1] == 'K' && b[2] == 3 && b[3] == 4
}

func cmdStatus(o *options, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccjobs status", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := o.context()
	defer cancel()
	c := o.client()
	if fs.NArg() == 0 {
		list, err := c.Jobs(ctx)
		if err != nil {
			return err
		}
		if len(list) == 0 {
			fmt.Fprintln(out, "no jobs")
			return nil
		}
		for _, j := range list {
			fmt.Fprintf(out, "%s\t%-9s\t%d/%d done\t%s\n", j.ID, j.State, j.Done, j.Total, j.Name)
		}
		return nil
	}
	job, err := c.Job(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	printJob(out, job)
	return nil
}

func printJob(out io.Writer, j *api.Job) {
	fmt.Fprintf(out, "%s: %s (%d/%d done, %d failed)\n", j.ID, j.State, j.Done, j.Total, j.Failed)
	for i, it := range j.Items {
		line := fmt.Sprintf("  %3d %-9s %s", i+1, it.Status, it.Name)
		if it.Error != "" {
			line += ": " + it.Error
		}
		fmt.Fprintln(out, line)
	}
}

func cmdWatch(o *options, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccjobs watch", flag.ContinueOnError)
	after := fs.Int64("after", 0, "replay events with ID greater than this (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: ccjobs watch [-after ID] JOB")
	}
	ctx, cancel := o.context()
	defer cancel()
	return watchJob(ctx, o.client(), fs.Arg(0), *after, out)
}

// watchJob streams events to out and maps the terminal state to the
// exit-code contract: nil on Completed, errJobFailed otherwise.
func watchJob(ctx context.Context, c *client.Client, id string, after int64, out io.Writer) error {
	var final jobs.State
	err := c.WatchJob(ctx, id, after, func(ev jobs.Event) error {
		switch ev.Type {
		case jobs.EventQueued:
			fmt.Fprintf(out, "[%s] queued (%d item(s))\n", id, ev.Total)
		case jobs.EventItemStarted:
			fmt.Fprintf(out, "[%s] %d/%d started %s\n", id, ev.Item, ev.Total, ev.ItemName)
		case jobs.EventStatus:
			fmt.Fprintf(out, "[%s] %d/%d %s\n", id, ev.Item, ev.Total, ev.Msg)
		case jobs.EventItemDone:
			fmt.Fprintf(out, "[%s] %d/%d done %s (%d/%d settled)\n", id, ev.Item, ev.Total, ev.ItemName, ev.Done+ev.Failed, ev.Total)
		case jobs.EventItemFailed:
			fmt.Fprintf(out, "[%s] %d/%d FAILED %s: %s\n", id, ev.Item, ev.Total, ev.ItemName, ev.Msg)
		case jobs.EventResumed:
			fmt.Fprintf(out, "[%s] resumed after restart (%d/%d settled)\n", id, ev.Done+ev.Failed, ev.Total)
		case jobs.EventTerminal:
			final = ev.State
			fmt.Fprintf(out, "[%s] %s (%d done, %d failed)\n", id, strings.ToLower(string(ev.State)), ev.Done, ev.Failed)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if final != jobs.Completed {
		return fmt.Errorf("%s settled %s: %w", id, final, errJobFailed)
	}
	return nil
}

func cmdResult(o *options, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccjobs result", flag.ContinueOnError)
	item := fs.Int("item", 0, "fetch one item's archive (1-based) instead of the whole job")
	outPath := fs.String("out", "", "write the archive here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: ccjobs result [-item N] [-out FILE] JOB")
	}
	ctx, cancel := o.context()
	defer cancel()
	c := o.client()
	var data []byte
	var err error
	if *item > 0 {
		data, err = c.JobResultItem(ctx, fs.Arg(0), *item)
	} else {
		data, err = c.JobResult(ctx, fs.Arg(0))
	}
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Code == "not_finished" {
			return fmt.Errorf("%s is still running (use watch, or result -item N for settled items): %w", fs.Arg(0), errJobFailed)
		}
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ccjobs: wrote %d bytes to %s\n", len(data), *outPath)
		return nil
	}
	_, err = out.Write(data)
	return err
}

func cmdCancel(o *options, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccjobs cancel", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: ccjobs cancel JOB")
	}
	ctx, cancel := o.context()
	defer cancel()
	job, err := o.client().CancelJob(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	printJob(out, job)
	return nil
}
