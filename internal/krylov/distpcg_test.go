package krylov

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/precond"
	"repro/internal/problems"
)

// variableDiagOp scales the Poisson2D operator rows to create a varying
// diagonal, so Jacobi preconditioning has real work to do.
func variableDiagProblem() (*la.CSR, []float64, []float64) {
	a := problems.Poisson2D(20, 20)
	// D·A·D stays SPD; D = diag(1..~3).
	n := a.Rows
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + 2*float64(i)/float64(n)
	}
	b := triplets{}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			b.add(i, j, d[i]*a.Val[p]*d[j])
		}
	}
	scaled := b.csr(n, n)
	rhs, xstar := problems.ManufacturedRHS(scaled)
	return scaled, rhs, xstar
}

func TestPCGMatchesPipelinedPCG(t *testing.T) {
	const p = 4
	a, rhs, xstar := variableDiagProblem()

	solve := func(pipelined bool) ([]float64, Stats) {
		var sol []float64
		var stats Stats
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			m := precond.NewJacobi(c, a)
			if err := m.Setup(); err != nil {
				return err
			}
			local := op.Scatter(rhs)
			var x []float64
			var st Stats
			var err error
			if pipelined {
				x, st, err = DistPipelinedPCG(c, op, m, local, nil, DistOptions{Tol: 1e-10, MaxIter: 800})
			} else {
				x, st, err = DistPCG(c, op, m, local, nil, DistOptions{Tol: 1e-10, MaxIter: 800})
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

	xP, stP := solve(false)
	xG, stG := solve(true)
	if !stP.Converged || !stG.Converged {
		t.Fatalf("convergence pcg=%v pipelined=%v", stP.Converged, stG.Converged)
	}
	if e := la.NrmInf(la.Sub(xP, xstar)); e > 1e-6 {
		t.Errorf("PCG error %g", e)
	}
	if e := la.NrmInf(la.Sub(xP, xG)); e > 1e-6 {
		t.Errorf("pipelined PCG deviates from PCG by %g", e)
	}
	// Similar iteration counts (same Krylov space), fewer reductions.
	if diff := stG.Iterations - stP.Iterations; diff > 3 || diff < -3 {
		t.Errorf("iteration counts diverged: pcg=%d pipelined=%d", stP.Iterations, stG.Iterations)
	}
	if stG.Reductions >= stP.Reductions {
		t.Errorf("pipelined should post fewer reductions: %d vs %d", stG.Reductions, stP.Reductions)
	}
}

// TestJacobiActuallyHelps: on the badly scaled operator, Jacobi PCG must
// converge in fewer iterations than unpreconditioned CG.
func TestJacobiActuallyHelps(t *testing.T) {
	const p = 4
	a, rhs, _ := variableDiagProblem()

	iters := func(precon bool) int {
		out := 0
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			local := op.Scatter(rhs)
			var st Stats
			var err error
			if precon {
				m := precond.NewJacobi(c, a)
				if err := m.Setup(); err != nil {
					return err
				}
				_, st, err = DistPCG(c, op, m, local, nil, DistOptions{Tol: 1e-9, MaxIter: 2000})
			} else {
				_, st, err = DistCG(c, op, local, nil, DistOptions{Tol: 1e-9, MaxIter: 2000})
			}
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = st.Iterations
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := iters(false)
	jacobi := iters(true)
	if jacobi >= plain {
		t.Errorf("Jacobi (%d iters) should beat plain CG (%d) on the scaled operator", jacobi, plain)
	}
}

// TestUnpreconditionedPCGMatchesCG: a nil preconditioner must reduce
// DistPCG to exactly the CG iteration (the identity-M degeneracy the
// solvers promise for nil DistPreconditioner).
func TestUnpreconditionedPCGMatchesCG(t *testing.T) {
	const p = 2
	a, rhs, _ := variableDiagProblem()
	run := func(pcg bool) (x []float64, st Stats) {
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			local := op.Scatter(rhs)
			var xl []float64
			var s Stats
			var err error
			if pcg {
				xl, s, err = DistPCG(c, op, nil, local, nil, DistOptions{Tol: 1e-10, MaxIter: 900})
			} else {
				xl, s, err = DistCG(c, op, local, nil, DistOptions{Tol: 1e-10, MaxIter: 900})
			}
			if err != nil {
				return err
			}
			full, err := op.Gather(xl)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				x, st = full, s
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return x, st
	}
	xP, stP := run(true)
	xC, stC := run(false)
	if !stP.Converged || !stC.Converged {
		t.Fatalf("convergence pcg=%v cg=%v", stP.Converged, stC.Converged)
	}
	if d := stP.Iterations - stC.Iterations; d > 2 || d < -2 {
		t.Errorf("identity-PCG iterations %d vs CG %d", stP.Iterations, stC.Iterations)
	}
	if e := la.NrmInf(la.Sub(xP, xC)); e > 1e-8 {
		t.Errorf("identity-PCG deviates from CG by %g", e)
	}
}

// TestDistFamilyRejectsShortWarmStart: every distributed solver must
// refuse a warm start whose length is not the rank's slab — copy would
// otherwise truncate it silently and solve from a half-zero guess.
func TestDistFamilyRejectsShortWarmStart(t *testing.T) {
	a := problems.Poisson2D(6, 6)
	rhs, _ := problems.ManufacturedRHS(a)
	for _, s := range familySolvers {
		err := comm.Run(comm.Config{Ranks: 1, Cost: machine.DefaultCostModel()}, func(c *comm.Comm) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%v", r)
				}
			}()
			op := dist.NewCSR(c, a)
			b := op.Scatter(rhs)
			_, _, err = s.run(c, op, nil, b, make([]float64, len(b)-1), 30, 50)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "x0 has length") {
			t.Errorf("%s accepted a short x0 (err %v)", s.name, err)
		}
	}
}
