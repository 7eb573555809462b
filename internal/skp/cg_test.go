package skp

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/problems"
)

// TestSkepticalCG: CheckedOp is solver-agnostic — wrapping the operator
// protects CG exactly the way it protects GMRES, with the ABFT checksum
// catching both flip directions. This is the composability the paper's
// SkP model promises: the checks live with the kernel, not the solver.
func TestSkepticalCG(t *testing.T) {
	a := problems.Poisson2D(24, 24)
	op := krylov.NewCSROp(a)
	b, xstar := problems.ManufacturedRHS(a)

	_, clean, err := krylov.CG(op, b, nil, krylov.CGOptions{Tol: 1e-10, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Converged {
		t.Fatal("clean CG did not converge")
	}

	protected := 0
	for seed := uint64(0); seed < 10; seed++ {
		co := NewCheckedOp(exponentFlip(t, op, seed, 15), op, Correct)
		co.Checks = append(co.Checks, Checksum{ColSums: a.ColSums()})
		x, st, err := krylov.CG(co, b, nil, krylov.CGOptions{Tol: 1e-10, MaxIter: 600})
		if err != nil {
			t.Fatal(err)
		}
		if co.Stats.Detections == 0 {
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
}

// TestUncheckedCGCorrupted: CG has no restart mechanism, so a single
// uncorrected catastrophic flip derails it permanently — the reason the
// paper's CG-family story needs kernel-level checks even more than
// GMRES's does.
func TestUncheckedCGDerailed(t *testing.T) {
	a := problems.Poisson2D(24, 24)
	op := krylov.NewCSROp(a)
	b, xstar := problems.ManufacturedRHS(a)
	_, clean, err := krylov.CG(op, b, nil, krylov.CGOptions{Tol: 1e-10, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}

	derailed := 0
	upward := 0
	for seed := uint64(0); seed < 10; seed++ {
		faulty := exponentFlip(t, op, seed, 15)
		x, st, err := krylov.CG(faulty, b, nil, krylov.CGOptions{Tol: 1e-10, MaxIter: 600})
		if err != nil {
			t.Fatal(err)
		}
		ev := faulty.Faults.Run().Strikes()
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
