package skp

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/problems"
)

// cgRanks is the world size of the CG tests.
const cgRanks = 4

// cgSolve runs distributed CG on a over cgRanks ranks, optionally with
// one exponent-class flip in rank seed%cgRanks's product number 15
// (counting from 0), behind the checksum (checked) or bare. It returns
// the gathered solution, rank 0's stats, the detections summed over the
// ranks and the strikes the plan fired.
func cgSolve(t *testing.T, a *la.CSR, b []float64, seed uint64, flip, checked bool) ([]float64, krylov.Stats, int, []fault.Strike) {
	t.Helper()
	var plan fault.Plan
	if flip {
		plan = fault.Plan{Seed: seed, Entries: []fault.Entry{{
			Kind: fault.Flip, Rank: int(seed % cgRanks), Site: fault.SiteApply, At: 15,
			Index: fault.Drawn, Bit: fault.Drawn, Class: fault.Exponent,
		}}}
	}
	run, err := fault.NewRun(plan, cgRanks, dist.Partition{N: a.Rows, P: cgRanks}.Len)
	if err != nil {
		t.Fatal(err)
	}
	var x []float64
	var st krylov.Stats
	var detections int
	err = comm.Run(distCfg(cgRanks), func(c *comm.Comm) error {
		inner := dist.NewCSR(c, a)
		var op dist.Operator = &dist.Faulty{Inner: inner, Faults: run.Rank(c)}
		var co *DistCheckedOp
		if checked {
			co = NewDistCheckedOp(op, inner)
			op = co
		}
		xl, s, err := krylov.DistCG(c, op, inner.Scatter(b), nil, krylov.DistOptions{Tol: 1e-10, MaxIter: 600})
		if err != nil {
			return err
		}
		full, err := inner.Gather(xl)
		if err != nil {
			return err
		}
		det := 0.0
		if co != nil {
			det = float64(co.Stats.Detections)
		}
		if det, err = c.AllreduceScalar(det, comm.OpSum); err != nil {
			return err
		}
		if c.Rank() == 0 {
			x, st, detections = full, s, int(det)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, st, detections, run.Strikes()
}

// TestSkepticalCG: the checked operator is solver-agnostic — wrapping it
// protects CG exactly the way it protects GMRES, with the ABFT checksum
// catching both flip directions. This is the composability the paper's
// SkP model promises: the checks live with the kernel, not the solver.
func TestSkepticalCG(t *testing.T) {
	a := problems.Poisson2D(24, 24)
	b, xstar := problems.ManufacturedRHS(a)

	_, clean, _, _ := cgSolve(t, a, b, 0, false, false)
	if !clean.Converged {
		t.Fatal("clean CG did not converge")
	}

	protected := 0
	for seed := uint64(0); seed < 10; seed++ {
		x, st, detections, _ := cgSolve(t, a, b, seed, true, true)
		if detections == 0 {
			continue // sub-tolerance flip
		}
		protected++
		if !st.Converged {
			t.Errorf("seed %d: protected CG did not converge", seed)
		}
		if st.Iterations > clean.Iterations+2 {
			t.Errorf("seed %d: protected CG took %d iters vs clean %d", seed, st.Iterations, clean.Iterations)
		}
		if e := la.NrmInf(la.Sub(x, xstar)); e > 1e-7 {
			t.Errorf("seed %d: error %g", seed, e)
		}
	}
	if protected < 8 {
		t.Errorf("checksum detected only %d/10 exponent flips", protected)
	}
	t.Logf("checksum caught %d/10 exponent flips", protected)
}

// TestUncheckedCGDerailed: CG has no restart mechanism, so a single
// uncorrected catastrophic flip derails it permanently — the reason the
// paper's CG-family story needs kernel-level checks even more than
// GMRES's does.
func TestUncheckedCGDerailed(t *testing.T) {
	a := problems.Poisson2D(24, 24)
	b, xstar := problems.ManufacturedRHS(a)
	_, clean, _, _ := cgSolve(t, a, b, 0, false, false)

	derailed := 0
	upward := 0
	for seed := uint64(0); seed < 10; seed++ {
		x, st, _, ev := cgSolve(t, a, b, seed, true, false)
		if len(ev) == 1 && isUpward(ev[0]) {
			upward++
			e := la.NrmInf(la.Sub(x, xstar))
			if !st.Converged || st.Iterations > clean.Iterations+5 || e > 1e-6 {
				derailed++
			}
		}
	}
	if upward > 0 && derailed == 0 {
		t.Errorf("none of %d upward flips derailed unchecked CG", upward)
	}
	t.Logf("upward flips: %d/10, of which derailed unchecked CG: %d", upward, derailed)
}

func isUpward(e fault.Strike) bool {
	old, new := e.Old, e.New
	if old < 0 {
		old = -old
	}
	if new < 0 {
		new = -new
	}
	return new > 1e3*old
}
