package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/retry"
)

// The /v1/jobs client surface: submit batches, poll status, stream
// progress, and collect result archives. Submissions and polls run
// under the same retry discipline as every other call; WatchJob keeps
// its own reconnect loop because an SSE stream is long-lived — each
// reconnect resumes from the last event ID seen, so a server restart
// mid-watch costs a condensed replay, never a gap.

// ErrJobExpired reports a watched job that is permanently gone on the
// server (410 expired): its retention window lapsed, so no amount of
// reconnecting can ever deliver another event. WatchJob surfaces it
// immediately instead of burning the reconnect budget.
var ErrJobExpired = errors.New("client: job expired on the server")

// JobParams are the submission options of a single-model job; they map
// onto the POST /v1/jobs query parameters.
type JobParams struct {
	Name     string
	Priority int
	Library  string
	Root     string
	Style    string
	Annotate bool
	Target   string
}

func (p JobParams) query() url.Values {
	q := generateQuery(p.Library, p.Root, p.Style, p.Target, p.Annotate)
	if p.Name != "" {
		q.Set("name", p.Name)
	}
	if p.Priority != 0 {
		q.Set("priority", strconv.Itoa(p.Priority))
	}
	return q
}

// SubmitJobModel submits one raw XMI model as an asynchronous job.
func (c *Client) SubmitJobModel(ctx context.Context, xmi []byte, params JobParams) (*api.Job, error) {
	return decode[*api.Job](c.do(ctx, http.MethodPost, "/v1/jobs", params.query(), xmi))
}

// SubmitJobZip submits a zip batch (job.json manifest plus model
// files) as an asynchronous job.
func (c *Client) SubmitJobZip(ctx context.Context, batch []byte) (*api.Job, error) {
	return decode[*api.Job](c.do(ctx, http.MethodPost, "/v1/jobs", nil, batch))
}

// Job fetches one job's status document.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	return decode[*api.Job](c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil))
}

// Jobs lists every live job on the server.
func (c *Client) Jobs(ctx context.Context) ([]api.Job, error) {
	return decode[[]api.Job](c.do(ctx, http.MethodGet, "/v1/jobs", nil, nil))
}

// CancelJob cancels a job; already-settled items keep their results.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.Job, error) {
	return decode[*api.Job](c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil))
}

// JobResult fetches the result archive of a completed job: the item's
// schema zip for a single-item job, an archive of per-item zips plus a
// job.json summary otherwise. A job that is not finished answers 409
// (code not_finished); an expired one 410.
func (c *Client) JobResult(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, nil)
}

// JobResultItem fetches one item's schema zip (1-based index); it
// works as soon as that item is done, even while the job still runs.
func (c *Client) JobResultItem(ctx context.Context, id string, item int) ([]byte, error) {
	q := url.Values{"item": []string{strconv.Itoa(item)}}
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", q, nil)
}

// WatchJob streams a job's progress events, calling fn for each one in
// order, starting after event ID `after` (0 = from the beginning). It
// returns nil once the terminal event has been delivered, fn's error
// if fn fails, or the last transport error once the reconnect budget
// runs dry. Disconnects are resumed with Last-Event-ID, and the retry
// budget resets whenever a connection makes progress, so a long job
// survives any number of well-spaced interruptions.
func (c *Client) WatchJob(ctx context.Context, id string, after int64, fn func(jobs.Event) error) error {
	var errStop = errors.New("watch stopped") // sentinel: fn/terminal ended the stream
	var fnErr error
	last := after
	for {
		progressed := false
		err := retry.Do(ctx, c.policy, func(ctx context.Context) error {
			n, err := c.streamEvents(ctx, id, last, func(ev jobs.Event) error {
				last = ev.ID
				if err := fn(ev); err != nil {
					fnErr = err
					return errStop
				}
				if ev.Type == jobs.EventTerminal {
					return errStop
				}
				return nil
			})
			if n > 0 {
				progressed = true
			}
			if errors.Is(err, errStop) {
				// fn or the terminal event ended the watch: a final
				// verdict, not a transient fault.
				return retry.Permanent(err)
			}
			return err
		})
		switch {
		case err == nil:
			// The server ended the stream without a terminal event (for
			// example it is draining); reconnect and resume.
			continue
		case errors.Is(err, errStop):
			return fnErr
		case errors.Is(err, ErrJobExpired):
			// The job is gone for good; reconnecting — even after visible
			// progress — can only ever replay the same 410.
			return err
		case progressed && ctx.Err() == nil:
			// The connection delivered events before failing: treat the
			// next reconnect as a fresh budget rather than giving up on a
			// job that is demonstrably advancing.
			continue
		default:
			return err
		}
	}
}

// streamEvents opens one SSE connection and dispatches its frames,
// returning how many events were delivered. It bypasses Client.do —
// the whole point of the stream is not buffering the body.
func (c *Client) streamEvents(ctx context.Context, id string, after int64, fn func(jobs.Event) error) (int, error) {
	u := c.base + "/v1/jobs/" + url.PathEscape(id) + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, retry.Permanent(err)
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.attempts != nil {
		c.attempts.Inc()
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, ctxErr
		}
		return 0, &ConnectError{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		ae := decodeError(resp, data)
		if ae.Status == http.StatusGone && ae.Code == "expired" {
			return 0, retry.Permanent(fmt.Errorf("%w: %v", ErrJobExpired, ae))
		}
		if !ae.retryable() {
			return 0, retry.Permanent(ae)
		}
		return 0, ae
	}

	delivered := 0
	var data []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Frame boundary: dispatch the accumulated data payload. The
			// payload is the event's JSON form, which already carries its
			// ID and type, so the id:/event: lines need no separate parse.
			if len(data) == 0 {
				continue
			}
			var ev jobs.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return delivered, retry.Permanent(fmt.Errorf("decoding event frame: %w", err))
			}
			data = nil
			delivered++
			if err := fn(ev); err != nil {
				return delivered, err
			}
		case len(line) > 5 && line[:5] == "data:":
			data = append(data, []byte(trimSSEField(line[5:]))...)
		}
	}
	if err := sc.Err(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return delivered, ctxErr
		}
		return delivered, &ConnectError{Err: err}
	}
	return delivered, nil
}

// trimSSEField strips the single optional leading space the SSE format
// allows after the field colon.
func trimSSEField(s string) string {
	if len(s) > 0 && s[0] == ' ' {
		return s[1:]
	}
	return s
}
