package krylov

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/problems"
)

// TestCGSGMRESMatchesMGS verifies the one-reduce variant solves the same
// system to the same answer with far fewer reductions — bare and behind
// a Jacobi preconditioner, which it must apply like its MGS sibling —
// and reports one iteration event per iteration.
func TestCGSGMRESMatchesMGS(t *testing.T) {
	const p = 4
	a := problems.ConvDiff2D(16, 16, 20, 10)
	bGlob, xstar := problems.ManufacturedRHS(a)
	type solver func(*comm.Comm, dist.Operator, []float64, []float64, DistGMRESOptions) ([]float64, Stats, error)

	for _, jacobi := range []bool{false, true} {
		// solve returns rank 0's view: the gathered solution, the stats,
		// and how often the preconditioner ran and an iteration was
		// reported there.
		solve := func(run solver) (full []float64, st Stats, applied, reported int) {
			cfg := distConfig(p)
			cfg.Observer = func(ev obs.Event) {
				if ev.Rank == 0 && ev.Name == obs.EventIteration {
					reported++
				}
			}
			err := comm.Run(cfg, func(c *comm.Comm) error {
				op := dist.NewCSR(c, a)
				opts := DistGMRESOptions{Restart: 40, Tol: 1e-9, MaxIter: 300}
				m := &diagPrecon{c: c, d: op.Scatter(a.Diag()), rng: machine.NewRNG(1)}
				if jacobi {
					opts.Precon = m
				}
				x, s, err := run(c, op, op.Scatter(bGlob), nil, opts)
				if err != nil {
					return err
				}
				g, err := op.Gather(x)
				if c.Rank() == 0 {
					full, st, applied = g, s, m.calls
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		xCGS, stCGS, applied, reported := solve(DistCGSGMRES)
		xMGS, stMGS, _, _ := solve(DistGMRES)

		if !stCGS.Converged {
			t.Fatalf("jacobi=%v: CGS GMRES did not converge: %g", jacobi, stCGS.FinalResidual)
		}
		if e := la.NrmInf(la.Sub(xCGS, xstar)); e > 1e-5 {
			t.Errorf("jacobi=%v: CGS GMRES error %g", jacobi, e)
		}
		if e := la.NrmInf(la.Sub(xCGS, xMGS)); e > 1e-5 {
			t.Errorf("jacobi=%v: CGS and MGS GMRES differ by %g", jacobi, e)
		}
		if stCGS.Reductions >= stMGS.Reductions/3 {
			t.Errorf("jacobi=%v: CGS should slash reductions: cgs=%d mgs=%d", jacobi, stCGS.Reductions, stMGS.Reductions)
		}
		if (applied > 0) != jacobi {
			t.Errorf("jacobi=%v: CGS GMRES applied its preconditioner %d times", jacobi, applied)
		}
		if reported != stCGS.Iterations {
			t.Errorf("jacobi=%v: CGS GMRES reported %d iterations of %d", jacobi, reported, stCGS.Iterations)
		}
	}
}

// TestCGSGMRESAllocsIndependentOfSteps: the engine borrows a solve's
// footprint up front, so how many Arnoldi steps a CGS solve takes does
// not change how often it allocates.
func TestCGSGMRESAllocsIndependentOfSteps(t *testing.T) {
	a := problems.ConvDiff2D(12, 12, 20, 10)
	rhs, _ := problems.ManufacturedRHS(a)
	err := comm.Run(distConfig(1), func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		allocs := func(maxIter int) float64 {
			solve := func() {
				_, st, err := DistCGSGMRES(c, op, rhs, nil, DistGMRESOptions{Restart: 40, Tol: 1e-30, MaxIter: maxIter})
				if err != nil || st.Iterations != maxIter {
					t.Errorf("MaxIter %d: %d iterations, err %v", maxIter, st.Iterations, err)
				}
			}
			// The cheapest of several readings: a collection (and, under
			// the race detector, the pool itself) may drop the recycled
			// workspace, and that solve pays for a fresh one — the
			// comparison is between solves that found theirs.
			best := math.Inf(1)
			for i := 0; i < 10; i++ {
				best = min(best, testing.AllocsPerRun(1, solve))
			}
			return best
		}
		if short, long := allocs(10), allocs(40); short != long {
			t.Errorf("a 10-step solve allocates %v times, a 40-step solve %v", short, long)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChebyshevSolvesPoisson verifies the zero-reduction iteration
// converges with correct spectral bounds and uses almost no reductions.
func TestChebyshevSolvesPoisson(t *testing.T) {
	const n, p = 200, 4
	a := problems.Poisson1D(n)
	bGlob, xstar := problems.ManufacturedRHS(a)

	err := comm.Run(distConfig(p), func(c *comm.Comm) error {
		op := dist.NewStencil3(c, n, -1, 2, -1)
		pt := dist.Partition{N: n, P: p}
		lo, hi := pt.Range(c.Rank())
		// 1D Poisson eigenvalues: 2 - 2cos(kπ/(n+1)) ∈ (0, 4).
		lmin := 2 - 2*cosPi(1, n+1)
		lmax := 2 - 2*cosPi(n, n+1)
		x, st, err := DistChebyshev(c, op, la.Copy(bGlob[lo:hi]), nil, ChebyshevOptions{
			LambdaMin: lmin, LambdaMax: lmax, Tol: 1e-8, MaxIter: 4000, CheckEvery: 25,
		})
		if err != nil {
			return err
		}
		if !st.Converged {
			t.Errorf("rank %d: Chebyshev did not converge: %g after %d iters", c.Rank(), st.FinalResidual, st.Iterations)
		}
		// Reductions should be ~ iters/CheckEvery, not ~ iters.
		if st.Reductions > st.Iterations/10+5 {
			t.Errorf("too many reductions: %d for %d iterations", st.Reductions, st.Iterations)
		}
		full, err := c.Allgather(x)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if e := la.NrmInf(la.Sub(full, xstar)); e > 1e-5 {
				t.Errorf("Chebyshev error %g", e)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func cosPi(k, n int) float64 {
	return math.Cos(float64(k) * math.Pi / float64(n))
}

// TestGMRESVariantsOnIdentity: A = I is the degenerate happy-breakdown
// case — every variant must converge in one iteration instead of
// spinning on a discarded column.
func TestGMRESVariantsOnIdentity(t *testing.T) {
	const n, p = 60, 3
	for _, name := range []string{"mgs", "cgs", "p1"} {
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewStencil3(c, n, 0, 1, 0) // identity
			b := make([]float64, op.LocalLen())
			for i := range b {
				b[i] = float64(i) + 1
			}
			var x []float64
			var st Stats
			var err error
			opts := DistGMRESOptions{Restart: 20, Tol: 1e-12, MaxIter: 50}
			switch name {
			case "mgs":
				x, st, err = DistGMRES(c, op, b, nil, opts)
			case "cgs":
				x, st, err = DistCGSGMRES(c, op, b, nil, opts)
			default:
				x, st, err = DistP1GMRES(c, op, b, nil, opts)
			}
			if err != nil {
				return err
			}
			if !st.Converged {
				t.Errorf("%s: did not converge on identity (res %g, iters %d)", name, st.FinalResidual, st.Iterations)
				return nil
			}
			if st.Iterations > 2 {
				t.Errorf("%s: %d iterations on identity", name, st.Iterations)
			}
			for i := range x {
				if math.Abs(x[i]-b[i]) > 1e-10 {
					t.Errorf("%s: x != b at %d", name, i)
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
