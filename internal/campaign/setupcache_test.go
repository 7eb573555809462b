package campaign

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/precond"
)

// mapCache is a minimal SetupCache for tests.
type mapCache struct {
	mu           sync.Mutex
	m            map[string]*precond.Artifact
	hits, misses int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]*precond.Artifact{}} }

func (c *mapCache) key(k SetupKey, rank int) string {
	return k.Problem + "/" + k.Precond + string(rune('0'+rank))
}

// Lookup implements SetupCache.
func (c *mapCache) Lookup(k SetupKey, rank int) *precond.Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.m[c.key(k, rank)]
	if a != nil {
		c.hits++
	} else {
		c.misses++
	}
	return a
}

// Store implements SetupCache.
func (c *mapCache) Store(k SetupKey, rank int, a *precond.Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[c.key(k, rank)]; !ok && a != nil {
		c.m[c.key(k, rank)] = a
	}
}

// TestFTGMRESInnerSetupUsesCache: ftgmres builds its inner block-ILU
// itself, but the factorisation's identity is the same (problem, grid,
// ranks, precond) as a plain bj-ilu cell's, so it must hit the same
// setup cache — and cached runs must stay byte-identical to uncached
// ones (Adopt charges Setup's exact virtual cost).
func TestFTGMRESInnerSetupUsesCache(t *testing.T) {
	spec := Spec{
		Name: "ft-cache", Seed: 13,
		Solvers:    []string{SolverFTGMRES},
		Preconds:   []string{PrecondBJILU},
		Problems:   []string{ProblemPoisson},
		Ranks:      []int{2},
		Faults:     []FaultSpec{{Model: FaultBitflip, Rate: 1e-3}},
		Replicates: 2, Grid: 10, Tol: 1e-6, MaxIter: 200,
	}
	cells := spec.Cells()
	if len(cells) != 1 {
		t.Fatalf("spec expands to %d cells, want 1", len(cells))
	}

	// Uncached oracle.
	plain0 := ExecuteRunEnv(&spec, cells[0], 0, nil)
	plain1 := ExecuteRunEnv(&spec, cells[0], 1, nil)

	cache := newMapCache()
	env := &ExecEnv{Setups: cache}
	cached0 := ExecuteRunEnv(&spec, cells[0], 0, env)
	cached1 := ExecuteRunEnv(&spec, cells[0], 1, env)

	for _, pair := range []struct{ plain, cached Record }{{plain0, cached0}, {plain1, cached1}} {
		pb, _ := json.Marshal(pair.plain)
		cb, _ := json.Marshal(pair.cached)
		if string(pb) != string(cb) {
			t.Errorf("cached ftgmres run differs from uncached:\n%s\n%s", cb, pb)
		}
	}
	cache.mu.Lock()
	hits, misses := cache.hits, cache.misses
	cache.mu.Unlock()
	if misses != 2 {
		t.Errorf("cache saw %d misses, want 2 (one per rank on the first run)", misses)
	}
	if hits != 2 {
		t.Errorf("cache saw %d hits, want 2 (one per rank on the second run) — ftgmres's inner ILU is bypassing the setup cache", hits)
	}
}
