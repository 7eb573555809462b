package bench

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/precond"
	"repro/internal/problems"
)

// TestPrecondKernelsAllocationFree pins the PR's acceptance gate in the
// unit suite (not just the benchdiff baseline): a warmed-up
// preconditioner application — block-Jacobi's triangular sweeps and the
// Chebyshev polynomial with its halo exchanges — performs zero heap
// allocations per op.
func TestPrecondKernelsAllocationFree(t *testing.T) {
	for _, name := range []string{
		"kernel/precond-bjacobi-apply-p4",
		"kernel/precond-chebyshev-apply-p4",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			k, ok := kernelByName(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			res := measureKernel(k, 10*time.Millisecond)
			if res.AllocsPerOp > 0.01 {
				t.Errorf("%s: %g allocs/op, want 0", name, res.AllocsPerOp)
			}
		})
	}
}

// TestFatSlabKernelsAllocationFree: on two ranks of 4608 rows each (past
// comm.OffloadRows, so the kernels go through Offload and, at
// GOMAXPROCS 2, rank 1's to the helper thread) a warmed Chebyshev
// application and a Chebyshev-preconditioned PCG iteration allocate
// nothing. Counts are read around rank 0's work rather than by
// testing.AllocsPerRun, which would pin GOMAXPROCS to 1, and the
// cheapest of several windows counts (see krylov's
// TestMGSDoesNotAllocate). PCG is counted per iteration: a solve of
// long iterations against one of short, the same per-solve set-up in
// both.
func TestFatSlabKernelsAllocationFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	const grid, windows = 96, 5
	a := problems.Poisson2D(grid, grid)
	// Exact spectral bounds of the 5-point Laplacian.
	lmin := 4 * (1 - math.Cos(math.Pi/(grid+1)))
	lmax := 4 * (1 + math.Cos(math.Pi/(grid+1)))
	err := comm.Run(comm.Config{Ranks: 2, Cost: machine.DefaultCostModel(), Seed: 1}, func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		n := op.LocalLen()
		if n < comm.OffloadRows {
			return fmt.Errorf("rank %d holds %d rows, fewer than comm.OffloadRows", c.Rank(), n)
		}
		m := precond.NewChebyshev(c, op, lmin, lmax, 4)
		if err := m.Setup(); err != nil {
			return err
		}
		r, z := make([]float64, n), make([]float64, n)
		for i := range r {
			r[i] = 1 + float64(i%7)
		}
		// least returns the fewest mallocs rank 0 saw over the windows
		// of f; the other rank runs f alongside.
		least := func(f func() error) (uint64, error) {
			var before, after runtime.MemStats
			fewest := uint64(math.MaxUint64)
			for range windows {
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				if err := f(); err != nil {
					return 0, err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
					fewest = min(fewest, after.Mallocs-before.Mallocs)
				}
			}
			return fewest, nil
		}
		apply := func() error {
			for range 10 {
				if err := m.ApplyInto(r, z); err != nil {
					return err
				}
			}
			return nil
		}
		// Warm-up: the world's collective pools fill and the helper starts.
		if err := apply(); err != nil {
			return err
		}
		allocs, err := least(apply)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && allocs != 0 {
			t.Errorf("10 Chebyshev applications on a fat slab allocate %d times", allocs)
		}

		solve := func(iters int) func() error {
			return func() error {
				_, st, err := krylov.DistPCG(c, op, m, r, nil, krylov.DistOptions{Tol: 1e-300, MaxIter: iters})
				if err == nil && st.Iterations != iters {
					t.Errorf("rank %d: PCG ran %d iterations, want %d", c.Rank(), st.Iterations, iters)
				}
				return err
			}
		}
		if err := solve(4)(); err != nil {
			return err
		}
		short, err := least(solve(4))
		if err != nil {
			return err
		}
		long, err := least(solve(24))
		if err != nil {
			return err
		}
		if c.Rank() == 0 && long > short {
			t.Errorf("20 more PCG iterations on a fat slab allocate %d more times (%d vs %d per solve)", long-short, long, short)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
