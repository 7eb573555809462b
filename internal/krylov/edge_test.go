package krylov

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/problems"
)

func TestGMRESZeroRHS(t *testing.T) {
	a := problems.Poisson1D(10)
	x, st, err := GMRES(NewCSROp(a), make([]float64, 10), nil, GMRESOptions{})
	if err != nil || !st.Converged || st.Iterations != 0 {
		t.Fatalf("zero rhs: err=%v st=%+v", err, st)
	}
	if la.Nrm2(x) != 0 {
		t.Error("zero rhs must give zero solution")
	}
}

// TestSerialGMRESAbandonedCyclesAreBounded: on this operator A·v₀
// overflows, so every cycle is abandoned at its first step and none adds
// an iteration. The abandoned-cycle budget must end the solve; the
// deadline turns a build without one into a failure, not a hung binary.
func TestSerialGMRESAbandonedCyclesAreBounded(t *testing.T) {
	a := triplets{}
	a.add(0, 0, 1.5e308)
	a.add(0, 1, 1.5e308)
	a.add(1, 1, 1)
	done := make(chan Stats, 1)
	go func() {
		_, st, _ := GMRES(NewCSROp(a.csr(2, 2)), []float64{1, 1}, nil, GMRESOptions{MaxIter: 20})
		done <- st
	}()
	select {
	case st := <-done:
		if st.Converged || st.Iterations != 0 || !math.IsInf(st.FinalResidual, 1) {
			t.Errorf("want an unconverged, iteration-free solve with an infinite residual, got %+v", st)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("GMRES is still abandoning cycles after 3 s")
	}
}

func TestGMRESWarmStartAtSolution(t *testing.T) {
	a := problems.Poisson1D(50)
	b, xstar := problems.ManufacturedRHS(a)
	_, st, err := GMRES(NewCSROp(a), b, xstar, GMRESOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 0 {
		t.Errorf("warm start at the solution should converge immediately: %+v", st)
	}
}

// cgOneRank runs DistCG on a one-rank world — the serial case — over
// the assembled operator a.
func cgOneRank(t *testing.T, a *la.CSR, b, x0 []float64, opts DistOptions) ([]float64, Stats) {
	t.Helper()
	var x []float64
	var st Stats
	err := comm.Run(distConfig(1), func(c *comm.Comm) error {
		var err error
		x, st, err = DistCG(c, dist.NewCSR(c, a), b, x0, opts)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, st
}

func TestCGZeroRHSAndWarmStart(t *testing.T) {
	a := problems.Poisson1D(30)
	if _, st := cgOneRank(t, a, make([]float64, 30), nil, DistOptions{}); !st.Converged {
		t.Fatalf("zero rhs: %+v", st)
	}
	b, xstar := problems.ManufacturedRHS(a)
	if _, st := cgOneRank(t, a, b, xstar, DistOptions{Tol: 1e-8}); st.Iterations != 0 {
		t.Fatalf("warm start: %+v", st)
	}
}

// TestHookAbortsWithCustomError: an ArnoldiHook error other than
// ErrRestartCycle ends the solve with that error, after the step that
// raised it.
func TestHookAbortsWithCustomError(t *testing.T) {
	a := problems.Poisson2D(8, 8)
	b, _ := problems.ManufacturedRHS(a)
	sentinel := errors.New("stop now")
	_, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{
		ArnoldiHook: func(j int, v [][]float64, h *la.Dense) error {
			if j >= 2 {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("want sentinel error, got %v", err)
	}
	if st.Iterations != 3 {
		t.Errorf("aborted after %d iterations, want 3", st.Iterations)
	}
}

// TestCGGracefulOnIndefinite: CG on a negative-definite operator must
// stop (sigma ≤ 0 guard) rather than diverge or panic.
func TestCGGracefulOnIndefinite(t *testing.T) {
	const n = 20
	b := problems.OnesRHS(n)
	err := comm.Run(distConfig(2), func(c *comm.Comm) error {
		neg := dist.NewStencil3(c, n, 1, -2, 1)
		pt := dist.Partition{N: n, P: c.Size()}
		lo, hi := pt.Range(c.Rank())
		_, st, err := DistCG(c, neg, b[lo:hi], nil, DistOptions{MaxIter: 50})
		if err != nil {
			return err
		}
		if st.Converged {
			t.Error("cannot converge on a negative-definite system")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGMRESResidualMonotoneWithinCycle: the Givens residual estimate is
// non-increasing within an Arnoldi cycle — the invariant the skeptical
// residual-monotonicity check would rely on.
func TestGMRESResidualMonotoneWithinCycle(t *testing.T) {
	a := problems.ConvDiff2D(16, 16, 10, 5)
	b, _ := problems.ManufacturedRHS(a)
	_, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{Restart: 200, Tol: 1e-10, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(st.Residuals); i++ {
		if st.Residuals[i] > st.Residuals[i-1]*(1+1e-12) {
			t.Fatalf("residual increased at iter %d: %g -> %g", i, st.Residuals[i-1], st.Residuals[i])
		}
	}
}

// TestStatsResidualHistoryLength: history bookkeeping matches the
// iteration count.
func TestStatsResidualHistoryLength(t *testing.T) {
	a := problems.Poisson2D(10, 10)
	b, _ := problems.ManufacturedRHS(a)
	for _, m := range []int{5, 20, 60} {
		_, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{Restart: m, Tol: 1e-9, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Residuals) != st.Iterations {
			t.Errorf("m=%d: %d residuals for %d iterations", m, len(st.Residuals), st.Iterations)
		}
		if !st.Converged {
			t.Errorf("m=%d: did not converge", m)
		}
	}
}

// TestOpDefaults exercises option defaulting.
func TestOptionDefaults(t *testing.T) {
	var g GMRESOptions
	g.defaults()
	if g.Restart != 30 || g.Tol != 1e-8 || g.MaxIter != 1000 {
		t.Errorf("GMRES defaults: %+v", g)
	}
	var d DistOptions
	d.defaults()
	if d.Tol != 1e-8 || d.MaxIter != 500 {
		t.Errorf("Dist defaults: %+v", d)
	}
	var dg DistGMRESOptions
	dg.defaults()
	if dg.Restart != 30 || dg.MaxIter != 300 {
		t.Errorf("DistGMRES defaults: %+v", dg)
	}
}

// TestFGMRESVariablePrecon: the preconditioner genuinely may change per
// iteration and FGMRES still converges (the property FT-GMRES needs).
func TestFGMRESVariablePrecon(t *testing.T) {
	a := problems.ConvDiff2D(14, 14, 10, 5)
	b, xstar := problems.ManufacturedRHS(a)
	vp := &varyingPrecon{d: a.Diag()}
	x, st, err := GMRES(NewCSROp(a), b, nil, GMRESOptions{Restart: 40, Tol: 1e-9, MaxIter: 300, Precon: vp})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("FGMRES with varying precon did not converge: %g", st.FinalResidual)
	}
	if e := la.NrmInf(la.Sub(x, xstar)); e > 1e-6 {
		t.Errorf("error %g", e)
	}
	if vp.calls < 2 {
		t.Error("preconditioner was barely used")
	}
}

type varyingPrecon struct {
	d     []float64
	calls int
}

func (p *varyingPrecon) Solve(r, z []float64) {
	p.calls++
	// Alternate between Jacobi and damped Jacobi: a different operator
	// every call, which plain right-preconditioned GMRES cannot absorb
	// but FGMRES can.
	damp := 1.0
	if p.calls%2 == 0 {
		damp = 0.5
	}
	for i := range r {
		z[i] = damp * r[i] / p.d[i]
	}
}

func ExampleGMRES() {
	a := problems.Poisson1D(100)
	b, _ := problems.ManufacturedRHS(a)
	_, st, _ := GMRES(NewCSROp(a), b, nil, GMRESOptions{Tol: 1e-10})
	fmt.Println("converged:", st.Converged)
	// Output: converged: true
}
