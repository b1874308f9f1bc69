package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"github.com/go-ccts/ccts/internal/api"
	"github.com/go-ccts/ccts/internal/repo"
)

// Pull copies one subject's complete version history from the primary
// at fromAddr into dst — the data plane of a rebalance. It reuses the
// endpoints every primary already serves: the /v1/repo version listing
// for the metadata and /v1/repl/blob for the content, so migration
// needs no new wire protocol. Every step is idempotent (blob writes
// are content-addressed, repo.Adopt acknowledges identical versions),
// which is what makes a crashed rebalance resumable: re-running a pull
// skips whatever already landed.
//
// Pull deliberately speaks plain net/http rather than internal/client:
// the client package routes through shard maps, and migration must
// keep working while the map says the subject still belongs elsewhere.
func Pull(ctx context.Context, hc *http.Client, dst *repo.Repo, fromAddr, subject string) (adopted int, err error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	base := strings.TrimRight(fromAddr, "/")

	var listing api.VersionList
	u := base + "/v1/repo/subjects/" + url.PathEscape(subject) + "/versions"
	if err := GetJSON(ctx, hc, u, &listing); err != nil {
		return 0, fmt.Errorf("shard: pulling %s from %s: %w", subject, fromAddr, err)
	}
	policy, err := repo.ParsePolicy(string(listing.Policy))
	if err != nil {
		return 0, fmt.Errorf("shard: pulling %s from %s: %w", subject, fromAddr, err)
	}

	for i := range listing.Versions {
		v := listing.Versions[i]
		if !v.Deleted {
			for _, sha := range v.BlobRefs() {
				if dst.HasBlob(sha) {
					continue
				}
				data, err := getBytes(ctx, hc, base+"/v1/repl/blob/"+url.PathEscape(sha))
				if err != nil {
					return adopted, fmt.Errorf("shard: pulling blob %s of %s: %w", sha, subject, err)
				}
				got, err := dst.PutBlob(data)
				if err != nil {
					return adopted, fmt.Errorf("shard: storing blob %s of %s: %w", sha, subject, err)
				}
				if got != sha {
					return adopted, fmt.Errorf("shard: blob %s of %s hashed to %s in transit", sha, subject, got)
				}
			}
		}
		added, err := dst.Adopt(subject, policy, v)
		if err != nil {
			return adopted, fmt.Errorf("shard: adopting %s version %d: %w", subject, v.Number, err)
		}
		if added {
			adopted++
		}
	}
	return adopted, nil
}

// GetJSON fetches one JSON document from a peer, demanding a 200, and
// decodes it into out.
func GetJSON(ctx context.Context, hc *http.Client, u string, out any) error {
	data, err := getBytes(ctx, hc, u)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// getBytes fetches one resource, demanding a 200.
func getBytes(ctx context.Context, hc *http.Client, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(snippet)))
	}
	return io.ReadAll(resp.Body)
}
