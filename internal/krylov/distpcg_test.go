package krylov

import (
	"fmt"
	"math"
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

// TestUnpreconditionedPCGMatchesCG: a nil preconditioner reduces each
// PCG loop to its CG twin bit for bit — the same solution, iteration
// count and residual history, at one rank and at three — and the two
// differ only in what the identity costs. DistPCG(nil) reduces (r, r)
// on its own, one more reduction per convergence check; DistPipelinedPCG
// (nil) folds it into its one merged reduction as a third scalar and
// updates two more vectors, so only its clock moves.
func TestUnpreconditionedPCGMatchesCG(t *testing.T) {
	a, rhs, _ := variableDiagProblem()
	opts := DistOptions{Tol: 1e-10, MaxIter: 900}
	type solver func(c *comm.Comm, op dist.Operator, b []float64) ([]float64, Stats, error)
	run := func(p int, solve solver) (x []float64, st Stats) {
		err := comm.Run(distConfig(p), func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			xl, s, err := solve(c, op, op.Scatter(rhs))
			if err != nil {
				return err
			}
			full, err := op.Gather(xl)
			if c.Rank() == 0 {
				x, st = full, s
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return x, st
	}
	for _, pair := range []struct {
		name    string
		pcg, cg solver
		extra   int // reductions the identity adds per convergence check
	}{
		{"classic", func(c *comm.Comm, op dist.Operator, b []float64) ([]float64, Stats, error) {
			return DistPCG(c, op, nil, b, nil, opts)
		}, func(c *comm.Comm, op dist.Operator, b []float64) ([]float64, Stats, error) {
			return DistCG(c, op, b, nil, opts)
		}, 1},
		{"pipelined", func(c *comm.Comm, op dist.Operator, b []float64) ([]float64, Stats, error) {
			return DistPipelinedPCG(c, op, nil, b, nil, opts)
		}, func(c *comm.Comm, op dist.Operator, b []float64) ([]float64, Stats, error) {
			return DistPipelinedCG(c, op, b, nil, opts)
		}, 0},
	} {
		for _, p := range []int{1, 3} {
			name := fmt.Sprintf("%s P=%d", pair.name, p)
			xP, stP := run(p, pair.pcg)
			xC, stC := run(p, pair.cg)
			if !stC.Converged {
				t.Fatalf("%s: CG did not converge (%g)", name, stC.FinalResidual)
			}
			if !sameBits(xP, xC) {
				t.Errorf("%s: solutions differ in bits", name)
			}
			if stP.Iterations != stC.Iterations || stP.Converged != stC.Converged ||
				!sameBits(stP.Residuals, stC.Residuals) || math.Float64bits(stP.FinalResidual) != math.Float64bits(stC.FinalResidual) {
				t.Errorf("%s: identity-PCG ran %d iterations (converged %v), CG %d (converged %v), or their residual histories differ in bits",
					name, stP.Iterations, stP.Converged, stC.Iterations, stC.Converged)
			}
			extra := pair.extra * len(stC.Residuals)
			if stP.Reductions != stC.Reductions+extra {
				t.Errorf("%s: identity-PCG made %d reductions, CG %d (want %d more)", name, stP.Reductions, stC.Reductions, extra)
			}
			if stP.VirtualTime <= stC.VirtualTime {
				t.Errorf("%s: identity-PCG's clock %g should pass CG's %g", name, stP.VirtualTime, stC.VirtualTime)
			}
		}
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
