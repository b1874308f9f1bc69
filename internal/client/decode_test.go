package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/retry"
)

// TestGenerateQueries pins the query strings of a publish and a job
// submission, which share one builder for the generation options.
func TestGenerateQueries(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{PublishParams{Library: "L"}.query().Encode(), "library=L"},
		{PublishParams{Library: "L", Root: "R", Style: "composite", Annotate: true, Policy: "none"}.query().Encode(),
			"annotate=true&library=L&policy=none&root=R&style=composite"},
		{JobParams{Library: "L"}.query().Encode(), "library=L"},
		{JobParams{Name: "n", Priority: 2, Library: "L", Root: "R", Style: "shared", Annotate: true, Target: "proto"}.query().Encode(),
			"annotate=true&library=L&name=n&priority=2&root=R&style=shared&target=proto"},
	} {
		if c.got != c.want {
			t.Errorf("query = %q, want %q", c.got, c.want)
		}
	}
}

// TestWatchJobReadsErrorEnvelope: the event stream decodes a refusal
// like every other call, so a reconnect waits out the server's
// Retry-After and a final refusal reports its findings.
func TestWatchJobReadsErrorEnvelope(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch conns.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining","code":"draining"}`))
		case 2:
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, sseFrame(jobs.Event{ID: 1, Type: jobs.EventTerminal, Job: "j1", State: jobs.Completed}))
		default:
			w.WriteHeader(http.StatusUnprocessableEntity)
			w.Write([]byte(`{"error":"refused","code":"validation","findings":[{"rule":"CCL-3","severity":"error","message":"m"}]}`))
		}
	}))
	defer srv.Close()

	var delays []time.Duration
	c := New(srv.URL, Options{Retry: retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}})
	if err := c.WatchJob(context.Background(), "j1", 0, func(jobs.Event) error { return nil }); err != nil {
		t.Fatalf("WatchJob = %v", err)
	}
	if len(delays) != 1 || delays[0] < 7*time.Second {
		t.Errorf("reconnect delays = %v, want one of at least the 7s Retry-After", delays)
	}

	err := c.WatchJob(context.Background(), "j1", 0, func(jobs.Event) error { return nil })
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity || !strings.Contains(err.Error(), "\nerror [CCL-3] ") {
		t.Errorf("WatchJob = %v, want a 422 naming CCL-3", err)
	}
}
