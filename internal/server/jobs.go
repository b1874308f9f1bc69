package server

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/schemacache"
)

// The /v1/jobs endpoint family: asynchronous batch generation.
//
//	POST   /v1/jobs              submit a batch; 202 + job document
//	GET    /v1/jobs              list live jobs
//	GET    /v1/jobs/{id}         job status document
//	GET    /v1/jobs/{id}/events  live progress over SSE (resumable via
//	                             Last-Event-ID)
//	GET    /v1/jobs/{id}/result  result archive; ?item=N for one item
//	DELETE /v1/jobs/{id}         cancel
//
// A submission is either one raw XMI model with /v1/generate-style
// query parameters (plus name= and priority=), or a zip batch: a
// job.json manifest naming the model files in the same archive with
// per-item generation options over shared defaults.

// jobItemOptions are the per-item generation options of a batch
// manifest; zero-valued fields inherit the manifest defaults.
type jobItemOptions struct {
	Library  string          `json:"library,omitempty"`
	Root     string          `json:"root,omitempty"`
	Style    string          `json:"style,omitempty"`
	Annotate *bool           `json:"annotate,omitempty"`
	Target   string          `json:"target,omitempty"`
	Profile  json.RawMessage `json:"profile,omitempty"`
}

// merge fills o's zero fields from d.
func (o jobItemOptions) merge(d jobItemOptions) jobItemOptions {
	if o.Library == "" {
		o.Library = d.Library
	}
	if o.Root == "" {
		o.Root = d.Root
	}
	if o.Style == "" {
		o.Style = d.Style
	}
	if o.Annotate == nil {
		o.Annotate = d.Annotate
	}
	if o.Target == "" {
		o.Target = d.Target
	}
	if len(o.Profile) == 0 {
		o.Profile = d.Profile
	}
	return o
}

// jobManifestItem is one entry of a batch manifest.
type jobManifestItem struct {
	// Name labels the item in events and results; defaults to Model.
	Name string `json:"name,omitempty"`
	// Model names the XMI file inside the same archive.
	Model string `json:"model"`
	jobItemOptions
}

// jobManifest is the job.json document of a zip submission.
type jobManifest struct {
	Name     string            `json:"name,omitempty"`
	Priority int               `json:"priority,omitempty"`
	Defaults jobItemOptions    `json:"defaults,omitempty"`
	Items    []jobManifestItem `json:"items"`
}

// jobManifestName is the manifest's required file name inside a zip
// submission.
const jobManifestName = "job.json"

// jobDoc renders a job snapshot as its status document.
func jobDoc(s *jobs.Snapshot, withItems bool) api.Job {
	j := api.Job{
		ID:          s.ID,
		Name:        s.Spec.Name,
		Priority:    s.Spec.Priority,
		State:       s.State,
		SubmittedAt: s.SubmittedAt,
		Done:        s.Done,
		Failed:      s.FailedItems,
		Total:       len(s.Items),
	}
	if !s.DoneAt.IsZero() {
		t := s.DoneAt
		j.DoneAt = &t
	}
	if withItems {
		j.Items = make([]api.JobItem, len(s.Items))
		for i, it := range s.Items {
			j.Items[i] = api.JobItem{
				Name:    it.Spec.Name,
				Library: it.Spec.Library,
				Target:  it.Spec.Target,
				Status:  string(it.Status),
				Error:   it.Error,
				Nanos:   it.Nanos,
			}
		}
	}
	return j
}

// mapJobError extends the documented status mapping with the job
// lifecycle rows: 404 unknown job, 410 expired by retention, 409
// result-before-finish and cancel-after-finish, 503 while the job
// subsystem is shut down.
func mapJobError(err error) *apiError {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return &apiError{Status: http.StatusNotFound, Code: "job", Message: err.Error()}
	case errors.Is(err, jobs.ErrExpired):
		return &apiError{Status: http.StatusGone, Code: "expired", Message: err.Error()}
	case errors.Is(err, jobs.ErrNotFinished):
		return &apiError{Status: http.StatusConflict, Code: "not_finished", Message: err.Error()}
	case errors.Is(err, jobs.ErrFinished):
		return &apiError{Status: http.StatusConflict, Code: "finished", Message: err.Error()}
	case errors.Is(err, jobs.ErrClosed):
		return &apiError{Status: http.StatusServiceUnavailable, Code: "draining", Message: err.Error()}
	default:
		return mapError(err)
	}
}

// itemGenParams converts a durable item spec into generation
// parameters, running the same validation as the /v1/generate query
// parser so batch items and interactive requests accept exactly the
// same option space.
func itemGenParams(item jobs.ItemSpec) (genParams, *apiError) {
	q := url.Values{}
	q.Set("library", item.Library)
	if item.Root != "" {
		q.Set("root", item.Root)
	}
	if item.Style != "" {
		q.Set("style", item.Style)
	}
	if item.Annotate {
		q.Set("annotate", "true")
	}
	if item.Target != "" {
		q.Set("target", item.Target)
	}
	if len(item.Profile) > 0 {
		q.Set("profile", string(item.Profile))
	}
	return parseGenParams(q)
}

// executeJobItem is the jobs.Executor the server installs: one batch
// item through the same memoized pipeline as /v1/generate — the schema
// cache in front (a batch re-running a model it has seen is a hit, and
// identical items coalesce), generateCore behind it (panic isolation,
// limits, validation), and the shared deterministic zip writer. The
// worker pool bounds batch admission, so items bypass the interactive
// request semaphore.
func (s *Server) executeJobItem(ctx context.Context, item jobs.ItemSpec, model []byte, status func(string)) ([]byte, error) {
	params, aerr := itemGenParams(item)
	if aerr != nil {
		return nil, aerr
	}
	key := schemacache.Key(model, params.fingerprint())
	s.genRequests[params.Target].Inc()
	val, outcome, err := s.cache.Do(ctx, key, func() (*schemacache.Value, error) {
		v, _, err := s.generateCore(ctx, model, params, status)
		return v, err
	})
	if err != nil {
		return nil, err
	}
	s.genOutcomes[params.Target][outcome].Inc()
	return zipBytes(val)
}

// requireJobs answers the endpoint-family-absent 404 when no manager is
// configured.
func (s *Server) requireJobs(w http.ResponseWriter) bool {
	if s.jobs == nil {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: "jobs", Message: "no job subsystem configured (start ccserved with -job-dir)"})
		return false
	}
	return true
}

// handleJobSubmit is POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	var (
		name     string
		priority int
		items    []jobs.SubmitItem
	)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/zip") || bytes.HasPrefix(body, []byte("PK\x03\x04")) {
		m, its, err := parseJobZip(body)
		if err != nil {
			s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "batch", Message: err.Error()})
			return
		}
		name, priority, items = m.Name, m.Priority, its
	} else {
		// Single raw model: /v1/generate-style query parameters.
		q := r.URL.Query()
		name = q.Get("name")
		if p := q.Get("priority"); p != "" {
			n, err := strconv.Atoi(p)
			if err != nil {
				s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "params", Message: "priority must be an integer"})
				return
			}
			priority = n
		}
		var prof json.RawMessage
		if raw := q.Get("profile"); raw != "" {
			prof = json.RawMessage(raw)
		}
		itemName := q.Get("item")
		if itemName == "" {
			itemName = "model"
		}
		items = []jobs.SubmitItem{{
			Name:     itemName,
			Model:    body,
			Library:  q.Get("library"),
			Root:     q.Get("root"),
			Style:    q.Get("style"),
			Annotate: q.Get("annotate") == "true" || q.Get("annotate") == "1",
			Target:   q.Get("target"),
			Profile:  prof,
		}}
	}

	// Validate every item's options up front with the /v1/generate
	// parser: a batch with a bad target or profile is the client's
	// defect and answers 400 now, not a failed item later.
	for i, it := range items {
		spec := jobs.ItemSpec{
			Library:  it.Library,
			Root:     it.Root,
			Style:    it.Style,
			Annotate: it.Annotate,
			Target:   it.Target,
			Profile:  it.Profile,
		}
		if _, aerr := itemGenParams(spec); aerr != nil {
			aerr.Message = fmt.Sprintf("item %d (%s): %s", i+1, it.Name, aerr.Message)
			s.writeError(w, aerr)
			return
		}
	}

	snap, err := s.jobs.Submit(name, priority, items)
	if err != nil {
		s.writeError(w, mapJobError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(jobDoc(snap, true))
}

// parseJobZip decodes a zip submission: the job.json manifest plus the
// model files it names.
func parseJobZip(body []byte) (*jobManifest, []jobs.SubmitItem, error) {
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, nil, fmt.Errorf("batch is not a valid zip archive: %w", err)
	}
	files := make(map[string]*zip.File, len(zr.File))
	for _, f := range zr.File {
		files[f.Name] = f
	}
	mf, ok := files[jobManifestName]
	if !ok {
		return nil, nil, fmt.Errorf("batch archive has no %s manifest", jobManifestName)
	}
	readAll := func(f *zip.File) ([]byte, error) {
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return io.ReadAll(rc)
	}
	mdata, err := readAll(mf)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", jobManifestName, err)
	}
	dec := json.NewDecoder(bytes.NewReader(mdata))
	dec.DisallowUnknownFields()
	var m jobManifest
	if err := dec.Decode(&m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", jobManifestName, err)
	}
	if len(m.Items) == 0 {
		return nil, nil, fmt.Errorf("%s lists no items", jobManifestName)
	}
	items := make([]jobs.SubmitItem, len(m.Items))
	for i, mi := range m.Items {
		if mi.Model == "" {
			return nil, nil, fmt.Errorf("%s item %d names no model file", jobManifestName, i+1)
		}
		f, ok := files[mi.Model]
		if !ok {
			return nil, nil, fmt.Errorf("%s item %d: model file %q not in archive", jobManifestName, i+1, mi.Model)
		}
		model, err := readAll(f)
		if err != nil {
			return nil, nil, fmt.Errorf("reading model %q: %w", mi.Model, err)
		}
		opts := mi.jobItemOptions.merge(m.Defaults)
		name := mi.Name
		if name == "" {
			name = mi.Model
		}
		items[i] = jobs.SubmitItem{
			Name:     name,
			Model:    model,
			Library:  opts.Library,
			Root:     opts.Root,
			Style:    opts.Style,
			Annotate: opts.Annotate != nil && *opts.Annotate,
			Target:   opts.Target,
			Profile:  opts.Profile,
		}
	}
	return &m, items, nil
}

// handleJobList is GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	snaps := s.jobs.List()
	out := make([]api.Job, len(snaps))
	for i, snap := range snaps {
		out[i] = jobDoc(snap, false)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, mapJobError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(jobDoc(snap, true))
}

// handleJobCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, mapJobError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(jobDoc(snap, true))
}

// handleJobEvents is GET /v1/jobs/{id}/events: the job's progress
// stream as server-sent events. Event IDs are the SSE ids, so a
// dropped client resumes with Last-Event-ID (or ?after=N); an ID from
// before a server restart replays the condensed rebuilt history. The
// stream runs on the request's own context — deliberately outside the
// configured request timeout, a watch is as long as the job — and ends
// at the job's terminal event or when the server begins draining.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	id := r.PathValue("id")
	if _, err := s.jobs.Get(id); err != nil {
		s.writeError(w, mapJobError(err))
		return
	}
	after := int64(0)
	if h := r.Header.Get("Last-Event-ID"); h != "" {
		if n, err := strconv.ParseInt(h, 10, 64); err == nil && n > 0 {
			after = n
		}
	}
	if a := r.URL.Query().Get("after"); a != "" {
		n, err := strconv.ParseInt(a, 10, 64)
		if err != nil || n < 0 {
			s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "params", Message: "after must be a non-negative integer"})
			return
		}
		after = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, &apiError{Status: http.StatusInternalServerError, Code: "stream", Message: "response writer does not support streaming"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		evs, done, err := s.jobs.Wait(r.Context(), id, after, s.drainCh)
		if err != nil {
			return // client gone or job expired mid-watch; the stream just ends
		}
		for _, ev := range evs {
			if werr := writeSSE(w, ev); werr != nil {
				return
			}
			after = ev.ID
		}
		fl.Flush()
		if done {
			return
		}
		if len(evs) == 0 {
			return // drain began: end the stream so shutdown isn't held open
		}
	}
}

// writeSSE renders one event as an SSE frame: id, event type, one JSON
// data line.
func writeSSE(w io.Writer, ev jobs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
	return err
}

// handleJobResult is GET /v1/jobs/{id}/result. A single-item job
// answers the item's archive itself — byte-identical to the
// synchronous /v1/generate response for the same model and options. A
// multi-item job answers an outer deterministic zip holding each
// item's archive plus a job.json summary. ?item=N fetches one item's
// archive from any job state, so the finished part of a failed batch
// stays retrievable.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	id := r.PathValue("id")
	if q := r.URL.Query().Get("item"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "params", Message: "item must be a positive integer"})
			return
		}
		item, jerr := s.jobs.ResultItem(id, n)
		if jerr != nil {
			s.writeError(w, mapJobError(jerr))
			return
		}
		writeStored(w, fmt.Sprintf(`attachment; filename="%s.zip"`, sanitizeEntry(item.Name)), item.Zip)
		return
	}

	results, snap, err := s.jobs.Result(id)
	if err != nil {
		s.writeError(w, mapJobError(err))
		return
	}
	if len(results) == 1 {
		writeStored(w, `attachment; filename="schemas.zip"`, results[0].Zip)
		return
	}
	summary, err := json.Marshal(jobDoc(snap, true))
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusInternalServerError, Code: "archive", Message: err.Error()})
		return
	}
	a := archive{last: schemacache.NewFile(jobManifestName, summary)}
	for _, res := range results {
		a.files = append(a.files, schemacache.NewFile(fmt.Sprintf("%03d-%s.zip", res.Index, sanitizeEntry(res.Name)), res.Zip))
	}
	s.writeArchive(w, "application/zip", fmt.Sprintf(`attachment; filename="%s.zip"`, snap.ID), a)
}

// writeStored answers an item archive the job manager stored.
func writeStored(w http.ResponseWriter, disposition string, zip []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/zip")
	h.Set("Content-Disposition", disposition)
	h.Set("Content-Length", strconv.Itoa(len(zip)))
	w.Write(zip)
}

// sanitizeEntry restricts a client-chosen name to a safe archive entry
// fragment.
func sanitizeEntry(name string) string {
	if name == "" {
		return "item"
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
