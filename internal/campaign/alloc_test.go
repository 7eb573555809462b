package campaign

import (
	"runtime"
	"testing"
)

// warmRunAllocLimit is 40 % of the bytes one warm run of the cell below
// allocated at the commit before distributed solves borrowed their
// scratch (146,592 bytes, this test's own measurement there). A solve
// that goes back to building its footprint from nothing fails it.
const warmRunAllocLimit = 58636

// TestWarmRunAllocBytes measures what one warm ExecuteRunEnv of the
// quick spec's fault-free fgmres/chebyshev/poisson/p4 cell allocates —
// problem memoised, scratch pool filled, as in the middle of a campaign
// — and holds it under warmRunAllocLimit.
func TestWarmRunAllocBytes(t *testing.T) {
	spec := QuickSpec()
	var cell *Cell
	for _, c := range spec.Cells() {
		if c.Key() == "fgmres/chebyshev/poisson/p4/none" {
			cell = &c
			break
		}
	}
	if cell == nil {
		t.Fatal("the quick spec has no fgmres/chebyshev/poisson/p4/none cell")
	}
	var memo ProblemMemo
	env := &ExecEnv{Problems: memo.Problem}
	run := func() {
		if rec := ExecuteRunEnv(&spec, *cell, 0, env); rec.Err != "" || !rec.Converged {
			t.Fatalf("run failed: %+v", rec)
		}
	}
	// The cheapest of many runs: a collection between two runs empties
	// the scratch pool (and the race detector makes the pool drop a
	// quarter of what it is given), which costs the next run a fresh
	// footprint — the limit is about the runs that found their scratch.
	best := uint64(1 << 62)
	var before, after runtime.MemStats
	run()
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("warm run allocates %d bytes", best)
	if best > warmRunAllocLimit {
		t.Errorf("warm run allocates %d bytes, limit %d", best, warmRunAllocLimit)
	}
}
