package server

// The /v1/repo endpoint family exposes the persistent schema repository:
// publishing runs the full generate pipeline and stores the result as a
// new version of a subject, gated by the subject's compatibility policy;
// reads serve stored versions without regenerating anything.
//
//	GET    /v1/repo/subjects                          subject listing
//	POST   /v1/repo/subjects/{subject}/versions       generate + publish
//	GET    /v1/repo/subjects/{subject}/versions       version listing
//	GET    /v1/repo/subjects/{subject}/versions/{n}   zip, ?file= or ?format=json
//	DELETE /v1/repo/subjects/{subject}/versions/{n}   tombstone
//	GET    /v1/repo/subjects/{subject}/compat         dry-run gate (POST too)
//
// {n} is a version number or "latest". A publish rejected by the policy
// answers 409 with the machine-readable change list; a tombstoned
// version answers 410.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/diff"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/schemacache"
)

// writeRepoError renders repository failures: 409 with the change list
// for a policy rejection, 410 for tombstones, 404 for unknown names,
// and the standard mapping otherwise.
func (s *Server) writeRepoError(w http.ResponseWriter, err error) {
	var ce *repo.CompatError
	switch {
	case errors.As(err, &ce):
		s.errors4xx.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(api.Incompatible{
			Error:    api.Error{Message: ce.Error(), Code: "incompatible"},
			Conflict: api.Conflict{Subject: ce.Subject, Against: ce.Against, Policy: ce.Policy, Changes: ce.Report.Breaking()},
		})
	case errors.Is(err, repo.ErrDeleted):
		s.writeError(w, &apiError{Status: http.StatusGone, Code: "deleted", Message: err.Error()})
	case errors.Is(err, repo.ErrNotFound):
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: "not_found", Message: err.Error()})
	default:
		s.writeError(w, mapError(err))
	}
}

// repoConfigured guards every /v1/repo handler.
func (s *Server) repoConfigured(w http.ResponseWriter) bool {
	if s.repo == nil {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: "repo", Message: "no schema repository configured"})
		return false
	}
	return true
}

// handleRepoSubjects is GET /v1/repo/subjects.
func (s *Server) handleRepoSubjects(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.repo.Subjects())
}

// handleRepoPublish is POST /v1/repo/subjects/{subject}/versions: the
// body is XMI, the query parameters are those of /v1/generate plus an
// optional 'policy'; the generated schema set becomes the subject's next
// version. Generation itself is memoized through the schema cache, so
// republishing known content pays only the gate and the WAL commit.
func (s *Server) handleRepoPublish(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	subject := r.PathValue("subject")
	if !s.shardGuard(w, r, subject, true) {
		return
	}
	if !s.replicaGuard(w) {
		return
	}
	params, aerr := parseGenParams(r.URL.Query())
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	var policy repo.Policy
	if p := r.URL.Query().Get("policy"); p != "" {
		parsed, err := repo.ParsePolicy(p)
		if err != nil {
			s.writeError(w, &apiError{Status: http.StatusBadRequest, Code: "params", Message: err.Error()})
			return
		}
		policy = parsed
	}
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	ctx, cancel, aerr := s.requestContext(r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	defer cancel()

	// The cold path yields the imported model as a by-product; on a
	// cache hit it stays nil and the repository imports the revision for
	// the gate.
	var model *ccts.Model
	key := schemacache.Key(body, params.fingerprint())
	val, outcome, err := s.cache.Do(ctx, key, func() (*schemacache.Value, error) {
		v, m, err := s.generateModel(ctx, body, params)
		model = m
		return v, err
	})
	if err != nil {
		s.writeError(w, mapError(err))
		return
	}

	files := make([]repo.File, 0, len(val.Files))
	for _, f := range val.Files {
		files = append(files, repo.File{Name: f.Name, Data: f.Data})
	}
	v, err := s.repo.Publish(repo.PublishRequest{
		Subject:     subject,
		Input:       body,
		Fingerprint: params.fingerprint(),
		RootElement: val.RootElement,
		Files:       files,
		Diagnostics: val.Diagnostics.Data,
		Policy:      policy,
		Model:       model,
	})
	if err != nil {
		s.writeRepoError(w, err)
		return
	}
	s.syncShardOwned()
	w.Header().Set("X-Ccserved-Cache", outcome.String())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(api.Version{Subject: subject, Version: *v})
}

// handleRepoVersions is GET /v1/repo/subjects/{subject}/versions.
func (s *Server) handleRepoVersions(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	subject := r.PathValue("subject")
	if !s.shardGuard(w, r, subject, false) {
		return
	}
	vs, err := s.repo.Versions(subject)
	if err != nil {
		s.writeRepoError(w, err)
		return
	}
	policy, _ := s.repo.Policy(subject)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(api.VersionList{Subject: subject, Policy: policy, Versions: vs})
}

// parseVersionNumber accepts a positive integer or "latest" (0).
func parseVersionNumber(raw string) (int, *apiError) {
	if raw == "latest" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		return 0, &apiError{Status: http.StatusBadRequest, Code: "params", Message: fmt.Sprintf("version must be a positive integer or 'latest', got %q", raw)}
	}
	return n, nil
}

// handleRepoVersion is GET /v1/repo/subjects/{subject}/versions/{number}:
// the stored schema set as a zip (default), one file via ?file=, or the
// version metadata via ?format=json.
func (s *Server) handleRepoVersion(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	subject := r.PathValue("subject")
	if !s.shardGuard(w, r, subject, false) {
		return
	}
	number, aerr := parseVersionNumber(r.PathValue("number"))
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	v, err := s.repo.Version(subject, number)
	if err != nil {
		s.writeRepoError(w, err)
		return
	}

	if name := r.URL.Query().Get("file"); name != "" {
		data, err := s.repo.VersionFile(subject, v.Number, name)
		if err != nil {
			s.writeRepoError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename=%q`, name))
		w.Write(data)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.Version{Subject: subject, Version: v})
		return
	}

	// Assemble the stored set into the cache's value shape and reuse the
	// deterministic zip writer of /v1/generate.
	val := &schemacache.Value{RootElement: v.RootElement}
	for _, f := range v.Files {
		data, err := s.repo.Blob(f.SHA256)
		if err != nil {
			s.writeError(w, &apiError{Status: http.StatusInternalServerError, Code: "storage", Message: err.Error()})
			return
		}
		val.Files = append(val.Files, schemacache.NewFile(f.Name, data))
	}
	var diags []byte
	if v.DiagnosticsSHA256 != "" {
		if diags, err = s.repo.Blob(v.DiagnosticsSHA256); err != nil {
			s.writeError(w, &apiError{Status: http.StatusInternalServerError, Code: "storage", Message: err.Error()})
			return
		}
	}
	val.Diagnostics = schemacache.NewFile(diagnosticsName, diags)
	s.writeZip(w, val)
}

// handleRepoDelete is DELETE /v1/repo/subjects/{subject}/versions/{number}.
func (s *Server) handleRepoDelete(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	subject := r.PathValue("subject")
	if !s.shardGuard(w, r, subject, true) {
		return
	}
	if !s.replicaGuard(w) {
		return
	}
	number, aerr := parseVersionNumber(r.PathValue("number"))
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	if number == 0 {
		v, err := s.repo.Version(subject, 0)
		if err != nil {
			s.writeRepoError(w, err)
			return
		}
		number = v.Number
	}
	if err := s.repo.Delete(subject, number); err != nil {
		s.writeRepoError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(api.Deleted{Subject: subject, Deleted: number})
}

// handleRepoCompat is GET|POST /v1/repo/subjects/{subject}/compat: the
// body is a candidate XMI revision; the response reports whether a
// publish would pass the subject's policy, with the full change list —
// nothing is stored.
func (s *Server) handleRepoCompat(w http.ResponseWriter, r *http.Request) {
	if !s.repoConfigured(w) {
		return
	}
	subject := r.PathValue("subject")
	if !s.shardGuard(w, r, subject, false) {
		return
	}
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	// The dry run imports and checks the revision, and imports the
	// previous version's input unless the repository has its model
	// memoised; take an admission slot like any other compute-bound
	// request.
	ctx, cancel, aerr := s.requestContext(r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	defer cancel()
	if err := s.admit(ctx); err != nil {
		s.writeError(w, mapError(err))
		return
	}
	defer s.release()

	model, _, _, err := s.checkModel(ctx, body)
	if err != nil {
		s.writeError(w, mapError(err))
		return
	}
	res, err := s.repo.Check(subject, body, model)
	if err != nil {
		s.writeRepoError(w, err)
		return
	}
	out := api.Compat{Subject: res.Subject, Policy: res.Policy, Against: res.Against, Compatible: res.Compatible}
	if res.Report != nil {
		// Against a published version the list is [], never null.
		out.Changes = append([]diff.Change{}, res.Report.Changes...)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
