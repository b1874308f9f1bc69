// Package schemacache memoizes generation results behind the serving
// subsystem. The transformation pipeline is deterministic — the same
// XMI bytes and generation options always produce the same schema set —
// so a resident service can answer repeated requests from a
// content-addressed cache instead of re-importing, re-validating and
// re-emitting. The cache is keyed by SHA-256 of the canonicalized XMI
// document plus an options fingerprint, bounds its memory with an LRU
// byte budget, collapses concurrent identical requests into a single
// underlying computation (singleflight), and counts hits, misses,
// coalesced waiters and evictions.
package schemacache

import (
	"container/list"
	"context"
	"hash/crc32"
	"sync"

	"github.com/go-ccts/ccts/internal/contentaddr"
	"github.com/go-ccts/ccts/internal/metrics"
)

// File is one cached schema document, already serialized.
type File struct {
	// Name is the schema file name (e.g. "EB005-HoardingPermit_0.4.xsd").
	Name string
	// Data is the serialized document.
	Data []byte
	// CRC32 is the IEEE CRC-32 of Data. Zip responses frame Data with
	// it, so every hit reuses the checksum instead of rehashing.
	CRC32 uint32
}

// NewFile returns the File for name and data with its CRC-32 computed.
func NewFile(name string, data []byte) File {
	return File{Name: name, Data: data, CRC32: crc32.ChecksumIEEE(data)}
}

// Value is one cached generation result: the serialized schema set in
// generation order plus the serialized diagnostics that accompany it.
// Values are immutable once stored; callers must not modify the byte
// slices.
type Value struct {
	// Files lists the schema documents in generation order; the
	// requested library's schema is first.
	Files []File
	// RootElement is the selected root element for DOCLibrary runs.
	RootElement string
	// Diagnostics is the serialized diagnostics report (JSON) for the
	// run: non-blocking validation findings the cold path produced. It
	// is the last file of every archive of the value.
	Diagnostics File
	// ContentType is the media type of Files, recorded by the producing
	// backend so multi-target responses label parts correctly. Empty
	// means the historical default, application/xml.
	ContentType string
}

// size is the byte cost the value charges against the cache budget.
func (v *Value) size() int64 {
	n := int64(len(v.Diagnostics.Data)) + int64(len(v.RootElement)) + int64(len(v.ContentType))
	for _, f := range v.Files {
		n += int64(len(f.Name)) + int64(len(f.Data))
	}
	return n
}

// Canonicalize normalizes an XMI document for content addressing. It is
// contentaddr.Canonicalize, re-exported so cache callers keep a single
// import; the cache and the persistent schema repository share the
// definition and therefore can never address the same input differently.
func Canonicalize(xmi []byte) []byte { return contentaddr.Canonicalize(xmi) }

// Key derives the content address of a request: SHA-256 over the
// canonicalized XMI bytes and the caller's options fingerprint (library,
// root, style, annotation flags — everything that changes the output).
// It is contentaddr.Key, shared with the schema repository.
func Key(xmi []byte, fingerprint string) string { return contentaddr.Key(xmi, fingerprint) }

// Outcome classifies how a Do call was answered.
type Outcome int

const (
	// Miss: this call ran the compute function.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: an identical call was already in flight; this call
	// waited for its result instead of recomputing.
	Coalesced
)

// String names the outcome for headers and logs.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// call is one in-flight computation shared by concurrent identical
// requests.
type call struct {
	done chan struct{}
	val  *Value
	err  error
}

// entry is one resident cache item.
type entry struct {
	key  string
	val  *Value
	cost int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls answered from the cache.
	Hits int64
	// Misses counts Do calls that ran the compute function.
	Misses int64
	// Coalesced counts Do calls that waited on an identical in-flight
	// computation.
	Coalesced int64
	// Evictions counts entries dropped to respect the byte budget.
	Evictions int64
	// Entries is the current number of resident values.
	Entries int
	// Bytes is the current charged size of all resident values.
	Bytes int64
}

// Cache is a content-addressed LRU cache with singleflight collapsing.
// All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // key -> *entry element
	flight map[string]*call

	hits, misses, coalesced, evictions int64

	// Optional instruments; nil until Instrument is called.
	mHits, mMisses, mCoalesced, mEvictions *metrics.Counter
	mBytes, mEntries                       *metrics.Gauge
}

// New returns a cache bounded to budget bytes of cached values. A
// budget <= 0 disables caching entirely (every Do is a miss, but
// singleflight collapsing still applies).
func New(budget int64) *Cache {
	return &Cache{
		budget: budget,
		ll:     list.New(),
		items:  map[string]*list.Element{},
		flight: map[string]*call{},
	}
}

// Instrument registers the cache's counters and gauges with a metrics
// registry under the schemacache_* names; subsequent cache activity
// updates them in place.
func (c *Cache) Instrument(r *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = r.Counter("schemacache_hits_total", "Requests answered from the schema cache.")
	c.mMisses = r.Counter("schemacache_misses_total", "Requests that ran a full generation.")
	c.mCoalesced = r.Counter("schemacache_coalesced_total", "Requests collapsed onto an identical in-flight generation.")
	c.mEvictions = r.Counter("schemacache_evictions_total", "Cache entries evicted to respect the byte budget.")
	c.mBytes = r.Gauge("schemacache_bytes", "Bytes of cached schema sets currently resident.")
	c.mEntries = r.Gauge("schemacache_entries", "Cached schema sets currently resident.")
	c.mHits.Add(c.hits)
	c.mMisses.Add(c.misses)
	c.mCoalesced.Add(c.coalesced)
	c.mEvictions.Add(c.evictions)
	c.mBytes.Set(c.used)
	c.mEntries.Set(int64(c.ll.Len()))
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.used,
	}
}

// Get returns the cached value for key, refreshing its recency. It does
// not count as a hit or miss; use Do for instrumented access.
func (c *Cache) Get(key string) (*Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	return nil, false
}

// Do returns the value for key, computing it at most once across
// concurrent callers. On a hit the cached value is returned immediately.
// On a miss the compute function runs on the calling goroutine; callers
// that arrive while it runs wait for its result (Coalesced) instead of
// recomputing. Errors are returned to every waiting caller and are not
// cached — the next request retries. A waiting caller whose ctx is
// cancelled stops waiting and returns ctx.Err(); the in-flight
// computation itself is owned by the leader and keeps running for the
// benefit of other waiters.
func (c *Cache) Do(ctx context.Context, key string, compute func() (*Value, error)) (*Value, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		if c.mHits != nil {
			c.mHits.Inc()
		}
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, Hit, nil
	}
	if cl, ok := c.flight[key]; ok {
		c.coalesced++
		if c.mCoalesced != nil {
			c.mCoalesced.Inc()
		}
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, Coalesced, cl.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.flight[key] = cl
	c.misses++
	if c.mMisses != nil {
		c.mMisses.Inc()
	}
	c.mu.Unlock()

	cl.val, cl.err = compute()

	c.mu.Lock()
	delete(c.flight, key)
	if cl.err == nil && cl.val != nil {
		c.store(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, Miss, cl.err
}

// store inserts a computed value and evicts from the LRU tail until the
// budget holds. Called with c.mu held. Values larger than the whole
// budget are not cached at all.
func (c *Cache) store(key string, v *Value) {
	if c.budget <= 0 {
		return
	}
	cost := v.size()
	if cost > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		// A concurrent non-collapsed computation (e.g. after an eviction
		// race) already stored this key; refresh recency and keep the
		// resident value so hit responses stay stable.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: key, val: v, cost: cost})
	c.items[key] = el
	c.used += cost
	for c.used > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		te := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.items, te.key)
		c.used -= te.cost
		c.evictions++
		if c.mEvictions != nil {
			c.mEvictions.Inc()
		}
	}
	if c.mBytes != nil {
		c.mBytes.Set(c.used)
	}
	if c.mEntries != nil {
		c.mEntries.Set(int64(c.ll.Len()))
	}
}
