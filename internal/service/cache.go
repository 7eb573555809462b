package service

import (
	"container/list"
	"sync"

	"repro/internal/campaign"
	"repro/internal/precond"
)

// CacheStats are the setup cache's hit/miss counters, exposed through
// GET /stats. Setup counters only ever see cacheable preconditioner
// families (campaign consults the cache for precond.Cacheable only),
// so the hit rate measures real reuse, not structural misses.
type CacheStats struct {
	ProblemHits   int64 `json:"problem_hits"`
	ProblemMisses int64 `json:"problem_misses"`
	SetupHits     int64 `json:"setup_hits"`
	SetupMisses   int64 `json:"setup_misses"`
	// SetupEvictions counts artifacts dropped by the LRU bound;
	// SetupEntries is the resident artifact count at sample time. An
	// eviction never changes any result: the next miss re-runs Setup,
	// and Cacheable.Adopt charges the exact same virtual cost either
	// way.
	SetupEvictions int64 `json:"setup_evictions"`
	SetupEntries   int64 `json:"setup_entries"`
}

// setupEntryKey is one rank's slot of a preconditioner Setup artifact.
type setupEntryKey struct {
	campaign.SetupKey
	rank int
}

// setupEntry is one LRU node: the key (so eviction can unlink the map
// slot from the list element) and the immutable artifact.
type setupEntry struct {
	key setupEntryKey
	a   *precond.Artifact
}

// Cache shares solve-setup work across requests: problem assemblies
// keyed by (problem, grid) — a campaign.ProblemMemo, so each problem's
// layouts per rank count ride along — and preconditioner Setup
// artifacts keyed by (problem, grid, ranks, precond, rank). Both are
// immutable once stored — problems are shared read-only by every rank
// of every run, and artifacts follow precond.Cacheable's read-only
// contract — so a hit is a pure wall-clock saving with
// bitwise-unchanged results.
//
// The setup side is bounded: SetMaxEntries caps resident artifacts and
// evicts least-recently-used beyond the cap. Eviction is safe while a
// run is mid-Adopt: artifacts are shared by pointer and never mutated,
// so a run holding an evicted artifact simply finishes with it; the
// next run for that key re-runs Setup and Adopt re-charges the exact
// Setup virtual cost, keeping evicted-then-recomputed runs
// byte-identical to always-cached ones. The problem side stays
// unbounded — the problem × grid space is tiny next to the setup key
// space (which multiplies in ranks, precond family, and per-rank
// slots).
//
// Cache is safe for concurrent use from the ranks of concurrently
// executing runs.
type Cache struct {
	problems campaign.ProblemMemo

	mu     sync.Mutex
	setups map[setupEntryKey]*list.Element // of *setupEntry
	lru    *list.List                      // front = most recent
	max    int                             // 0 = unbounded
	stats  CacheStats                      // setup counters; the problem ones live in problems
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{
		setups: make(map[setupEntryKey]*list.Element),
		lru:    list.New(),
	}
}

// SetMaxEntries bounds the setup cache to n resident artifacts
// (per-rank slots), evicting least-recently-used entries beyond the
// bound. n <= 0 means unbounded. Shrinking below the current
// population evicts immediately.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = n
	c.evictLocked()
}

// evictLocked drops LRU tail entries until the bound holds.
func (c *Cache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		e := back.Value.(*setupEntry)
		c.lru.Remove(back)
		delete(c.setups, e.key)
		c.stats.SetupEvictions++
	}
}

// Problem returns the cached assembly of the named problem, building it
// on first request. Concurrent first requests build once; everyone
// shares the result read-only.
func (c *Cache) Problem(name string, grid int) (campaign.Problem, error) {
	return c.problems.Problem(name, grid)
}

// Lookup implements campaign.SetupCache. A hit freshens the entry's
// LRU position.
func (c *Cache) Lookup(k campaign.SetupKey, rank int) *precond.Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.setups[setupEntryKey{SetupKey: k, rank: rank}]
	if !ok {
		c.stats.SetupMisses++
		return nil
	}
	c.stats.SetupHits++
	c.lru.MoveToFront(el)
	return el.Value.(*setupEntry).a
}

// Store implements campaign.SetupCache. The first artifact stored for a
// key wins; artifacts are deterministic functions of the key, so later
// duplicates (two concurrent misses) carry identical data anyway. A
// duplicate store freshens the existing entry instead of reinserting.
func (c *Cache) Store(k campaign.SetupKey, rank int, a *precond.Artifact) {
	if a == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ek := setupEntryKey{SetupKey: k, rank: rank}
	if el, ok := c.setups[ek]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.setups[ek] = c.lru.PushFront(&setupEntry{key: ek, a: a})
	c.evictLocked()
}

// Stats returns a copy of the counters, with SetupEntries sampled.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := c.stats
	st.SetupEntries = int64(c.lru.Len())
	c.mu.Unlock()
	st.ProblemHits, st.ProblemMisses = c.problems.Counts()
	return st
}
