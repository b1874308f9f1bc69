package repo

import (
	"sync"

	"github.com/go-ccts/ccts/internal/core"
)

// compatBaseBudget caps the canonicalized input bytes whose extracted
// models the compatibility-base memo holds: about 400 subjects of the
// paper's scale. An extracted model is smaller than its XMI, so the
// memo's resident size stays under the budget.
const compatBaseBudget = 16 << 20

// compatBase is one subject's memoised compatibility base: the extracted
// model of the canonicalized input stored under sha.
type compatBase struct {
	sha   string
	size  int64
	model *core.Model
}

// compatBases memoises, per subject, the model of its latest published
// input, so the compatibility gate diffs against it instead of reading
// and re-importing the stored XMI. An entry answers only for the content
// address it was stored under, and blobs are immutable: transitions the
// memo does not observe (adopted versions, snapshot installs, policy
// switches) cost a miss, never a stale base. Concurrent gates share the
// models, which nothing may modify.
type compatBases struct {
	mu    sync.Mutex
	bytes int64
	subj  map[string]compatBase
}

// get returns subject's base when it is the model of the input stored
// under sha, else nil.
func (c *compatBases) get(subject, sha string) *core.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.subj[subject]; ok && b.sha == sha {
		return b.model
	}
	return nil
}

// put makes model, extracted from the size-byte input stored under sha,
// subject's base. Other subjects' bases are evicted in map order while
// the budget would be exceeded; an input larger than the whole budget is
// not kept.
func (c *compatBases) put(subject, sha string, size int64, model *core.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(subject)
	if size > compatBaseBudget {
		return
	}
	for victim := range c.subj {
		if c.bytes+size <= compatBaseBudget {
			break
		}
		c.dropLocked(victim)
	}
	if c.subj == nil {
		c.subj = map[string]compatBase{}
	}
	c.subj[subject] = compatBase{sha: sha, size: size, model: model}
	c.bytes += size
}

// drop forgets subject's base.
func (c *compatBases) drop(subject string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(subject)
}

func (c *compatBases) dropLocked(subject string) {
	if b, ok := c.subj[subject]; ok {
		c.bytes -= b.size
		delete(c.subj, subject)
	}
}
