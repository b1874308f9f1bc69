// Package api declares the JSON documents of ccserved's /v1 endpoints
// once, for both ends of the wire: internal/server encodes them, and
// internal/client, cmd/ccrepo and cmd/ccjobs decode them. Where a
// domain type already has the wire shape it travels as itself
// (validate.Finding, diff.Change, repo.Version, repo.SubjectInfo,
// jobs.Event); this package holds only the documents around them. It
// declares types and nothing else, so a server importing it pulls in
// none of the client's retries or shard routing.
package api

import (
	"time"

	"github.com/go-ccts/ccts/internal/diff"
	"github.com/go-ccts/ccts/internal/jobs"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/validate"
)

// Error is the envelope every failed /v1 request answers with. Primary
// names the writable primary on a replica's 503 read_only; Owner and
// Epoch name the owning shard and the map epoch on a 421 wrong_shard;
// Findings are the reasons of a 422.
type Error struct {
	Message  string             `json:"error"`
	Code     string             `json:"code"`
	Primary  string             `json:"primary,omitempty"`
	Owner    string             `json:"owner,omitempty"`
	Epoch    int64              `json:"epoch,omitempty"`
	Findings []validate.Finding `json:"findings,omitempty"`
}

// Incompatible is the 409 answer to a publish that the subject's policy
// rejects: the error envelope followed by the conflict.
type Incompatible struct {
	Error
	Conflict
}

// Conflict names what the policy rejected: the breaking changes
// against version Against.
type Conflict struct {
	Subject string        `json:"subject"`
	Against int           `json:"against"`
	Policy  repo.Policy   `json:"policy"`
	Changes []diff.Change `json:"changes"`
}

// Version is one stored version of a subject: the 201 answer to a
// publish and the ?format=json answer of a version read.
type Version struct {
	Subject string       `json:"subject"`
	Version repo.Version `json:"version"`
}

// VersionList is the version listing of one subject.
type VersionList struct {
	Subject  string         `json:"subject"`
	Policy   repo.Policy    `json:"policy"`
	Versions []repo.Version `json:"versions"`
}

// Deleted is the answer to a version delete.
type Deleted struct {
	Subject string `json:"subject"`
	Deleted int    `json:"deleted"`
}

// Compat is the answer of a compatibility dry run: whether publishing
// the revision would pass the subject's policy, with every change
// against version Against.
type Compat struct {
	Subject    string        `json:"subject"`
	Policy     repo.Policy   `json:"policy"`
	Against    int           `json:"against"`
	Compatible bool          `json:"compatible"`
	Changes    []diff.Change `json:"changes"`
}

// Aggregate is the cluster-wide subject listing of GET /v1/repo: the
// merged rows plus which owners answered. An unsharded node answers its
// own subjects in the same document.
type Aggregate struct {
	Subjects    []AggregateSubject `json:"subjects"`
	Shards      int                `json:"shards"`
	Reached     int                `json:"reached"`
	Unreachable []UnreachableShard `json:"unreachable,omitempty"`
}

// AggregateSubject is one row of the aggregate listing; on a sharded
// cluster Shard names the owning shard.
type AggregateSubject struct {
	repo.SubjectInfo
	Shard string `json:"shard,omitempty"`
}

// UnreachableShard is one owner the aggregate listing could not reach.
type UnreachableShard struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Error string `json:"error"`
}

// ShardPull is the body of POST /v1/shard/pull: copy Subject's history
// from the peer at base URL From.
type ShardPull struct {
	Subject string `json:"subject"`
	From    string `json:"from"`
}

// Validation is the answer of POST /v1/validate.
type Validation struct {
	Valid    bool               `json:"valid"`
	Findings []validate.Finding `json:"findings"`
}

// Diagnostics is the diagnostics.json document that every generated
// schema set carries.
type Diagnostics struct {
	RootElement string             `json:"rootElement,omitempty"`
	Findings    []validate.Finding `json:"findings"`
}

// Job is the status document of a batch job. The listing of GET
// /v1/jobs leaves Items out.
type Job struct {
	ID          string     `json:"id"`
	Name        string     `json:"name,omitempty"`
	Priority    int        `json:"priority,omitempty"`
	State       jobs.State `json:"state"`
	SubmittedAt time.Time  `json:"submittedAt"`
	DoneAt      *time.Time `json:"doneAt,omitempty"`
	Done        int        `json:"done"`
	Failed      int        `json:"failed"`
	Total       int        `json:"total"`
	Items       []JobItem  `json:"items,omitempty"`
}

// JobItem is one item's state inside a job document; Nanos is its
// generation time.
type JobItem struct {
	Name    string `json:"name"`
	Library string `json:"library"`
	Target  string `json:"target,omitempty"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Nanos   int64  `json:"ns,omitempty"`
}
