package krylov

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/problems"
)

func residual(a *la.CSR, x, b []float64) float64 {
	r := la.Sub(b, a.MatVec(x, nil))
	return la.Nrm2(r) / la.Nrm2(b)
}

func TestCGPoisson1D(t *testing.T) {
	a := problems.Poisson1D(200)
	b, xstar := problems.ManufacturedRHS(a)
	x, st := cgOneRank(t, a, b, nil, DistOptions{Tol: 1e-10, MaxIter: 500})
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	if e := la.NrmInf(la.Sub(x, xstar)); e > 1e-7 {
		t.Errorf("solution error %g too large", e)
	}
}

func TestGMRESConvDiff(t *testing.T) {
	a := problems.ConvDiff2D(24, 24, 30, 20)
	b, xstar := problems.ManufacturedRHS(a)
	x, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{Restart: 40, Tol: 1e-10, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("GMRES did not converge: final %g after %d iters", st.FinalResidual, st.Iterations)
	}
	if e := la.NrmInf(la.Sub(x, xstar)); e > 1e-6 {
		t.Errorf("solution error %g too large", e)
	}
}

func TestGMRESRestartsStillConverge(t *testing.T) {
	a := problems.Poisson2D(16, 16)
	b, _ := problems.ManufacturedRHS(a)
	_, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{Restart: 10, Tol: 1e-8, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("restarted GMRES did not converge: %g", st.FinalResidual)
	}
	if st.Restarts < 2 {
		t.Errorf("expected multiple restart cycles, got %d", st.Restarts)
	}
}

func TestFGMRESWithJacobi(t *testing.T) {
	a := problems.ConvDiff2D(20, 20, 10, 5)
	b, _ := problems.ManufacturedRHS(a)
	x, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{
		Restart: 30, Tol: 1e-9, MaxIter: 400,
		Precon: jacobi{d: a.Diag()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("FGMRES did not converge: %g", st.FinalResidual)
	}
	if r := residual(a, x, b); r > 1e-7 {
		t.Errorf("true residual %g", r)
	}
}

type jacobi struct{ d []float64 }

func (j jacobi) Solve(r, z []float64) {
	for i := range r {
		z[i] = r[i] / j.d[i]
	}
}

func distConfig(p int) comm.Config {
	return comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 7}
}

// TestDistCGMatchesSerial runs distributed CG on a 1D Poisson chain and
// compares against the serial solution.
func TestDistCGMatchesSerial(t *testing.T) {
	const n, p = 240, 6
	a := problems.Poisson1D(n)
	bGlob, xstar := problems.ManufacturedRHS(a)

	var got []float64
	err := comm.Run(distConfig(p), func(c *comm.Comm) error {
		op := dist.NewStencil3(c, n, -1, 2, -1)
		pt := dist.Partition{N: n, P: p}
		lo, hi := pt.Range(c.Rank())
		x, st, err := DistCG(c, op, bGlob[lo:hi], nil, DistOptions{Tol: 1e-10, MaxIter: 800})
		if err != nil {
			return err
		}
		if !st.Converged {
			t.Errorf("rank %d: not converged (%g)", c.Rank(), st.FinalResidual)
		}
		full, err := c.Allgather(x)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = full
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := la.NrmInf(la.Sub(got, xstar)); e > 1e-6 {
		t.Errorf("distributed CG error %g", e)
	}
}

// TestPipelinedCGMatchesCG verifies the pipelined recurrences give the
// same answer as classic CG, and that they use fewer reductions.
func TestPipelinedCGMatchesCG(t *testing.T) {
	const n, p = 240, 8
	a := problems.Poisson1D(n)
	bGlob, _ := problems.ManufacturedRHS(a)

	solve := func(pipelined bool) ([]float64, Stats) {
		var sol []float64
		var stats Stats
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewStencil3(c, n, -1, 2, -1)
			pt := dist.Partition{N: n, P: p}
			lo, hi := pt.Range(c.Rank())
			var x []float64
			var st Stats
			var err error
			if pipelined {
				x, st, err = DistPipelinedCG(c, op, bGlob[lo:hi], nil, DistOptions{Tol: 1e-10, MaxIter: 800})
			} else {
				x, st, err = DistCG(c, op, bGlob[lo:hi], nil, DistOptions{Tol: 1e-10, MaxIter: 800})
			}
			if err != nil {
				return err
			}
			full, err := c.Allgather(x)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				sol, stats = full, st
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sol, stats
	}

	xCG, stCG := solve(false)
	xP, stP := solve(true)
	if !stCG.Converged || !stP.Converged {
		t.Fatalf("convergence: cg=%v pipelined=%v", stCG.Converged, stP.Converged)
	}
	if e := la.NrmInf(la.Sub(xCG, xP)); e > 1e-6 {
		t.Errorf("pipelined CG deviates from CG by %g", e)
	}
	if stP.Reductions >= stCG.Reductions {
		t.Errorf("pipelined should reduce reduction count: %d vs %d", stP.Reductions, stCG.Reductions)
	}
}

// TestDistGMRESAndP1Match verifies both distributed GMRES variants solve
// a nonsymmetric system, agree with each other, and that p1 issues far
// fewer reductions.
func TestDistGMRESAndP1Match(t *testing.T) {
	const p = 4
	a := problems.ConvDiff2D(16, 16, 20, 10)
	bGlob, xstar := problems.ManufacturedRHS(a)

	solve := func(pipelined bool) ([]float64, Stats) {
		var sol []float64
		var stats Stats
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			local := op.Scatter(bGlob)
			var x []float64
			var st Stats
			var err error
			if pipelined {
				x, st, err = DistP1GMRES(c, op, local, nil, DistGMRESOptions{Restart: 40, Tol: 1e-9, MaxIter: 300})
			} else {
				x, st, err = DistGMRES(c, op, local, nil, DistGMRESOptions{Restart: 40, Tol: 1e-9, MaxIter: 300})
			}
			if err != nil {
				return err
			}
			full, err := op.Gather(x)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				sol, stats = full, st
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sol, stats
	}

	xG, stG := solve(false)
	xP, stP := solve(true)
	if !stG.Converged {
		t.Fatalf("DistGMRES did not converge: %g", stG.FinalResidual)
	}
	if !stP.Converged {
		t.Fatalf("DistP1GMRES did not converge: %g after %d iters", stP.FinalResidual, stP.Iterations)
	}
	if e := la.NrmInf(la.Sub(xG, xstar)); e > 1e-5 {
		t.Errorf("DistGMRES error %g", e)
	}
	if e := la.NrmInf(la.Sub(xP, xstar)); e > 1e-5 {
		t.Errorf("DistP1GMRES error %g", e)
	}
	if stP.Reductions >= stG.Reductions/2 {
		t.Errorf("p1 should slash reductions: p1=%d mgs=%d", stP.Reductions, stG.Reductions)
	}
}

// TestP1GMRESHidesLatency: with heavy per-message latency, p1-GMRES must
// finish in less virtual time per iteration than MGS GMRES.
func TestP1GMRESHidesLatency(t *testing.T) {
	const p = 16
	const n = 4096
	cost := machine.DefaultCostModel()
	cost.Alpha = 1e-4 // exaggerated latency so the effect dominates

	run := func(pipelined bool) (perIter float64) {
		err := comm.Run(comm.Config{Ranks: p, Cost: cost, Seed: 3}, func(c *comm.Comm) error {
			op := dist.NewStencil3(c, n, -1, 2.5, -1)
			nl := op.LocalLen()
			b := make([]float64, nl)
			for i := range b {
				b[i] = 1
			}
			var st Stats
			var err error
			if pipelined {
				_, st, err = DistP1GMRES(c, op, b, nil, DistGMRESOptions{Restart: 20, Tol: 1e-12, MaxIter: 20})
			} else {
				_, st, err = DistGMRES(c, op, b, nil, DistGMRESOptions{Restart: 20, Tol: 1e-12, MaxIter: 20})
			}
			if err != nil {
				return err
			}
			mx, err := c.AllreduceScalar(c.Clock(), comm.OpMax)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && st.Iterations > 0 {
				perIter = mx / float64(st.Iterations)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return perIter
	}
	tMGS := run(false)
	tP1 := run(true)
	if tP1 >= tMGS {
		t.Errorf("p1-GMRES (%.3g s/iter) should beat MGS GMRES (%.3g s/iter) under latency", tP1, tMGS)
	}
}

func TestNrm2Stability(t *testing.T) {
	x := []float64{3e300, 4e300}
	if got := la.Nrm2(x); math.IsInf(got, 0) || math.Abs(got-5e300)/5e300 > 1e-14 {
		t.Errorf("Nrm2 overflow guard failed: %g", got)
	}
}
