package lflr

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/la"
)

func runImplicit(t *testing.T, p int, cfg ImplicitConfig) Result {
	t.Helper()
	res, err := RunImplicitHeat(heatWorld(p), cfg)
	if err != nil {
		t.Fatalf("RunImplicitHeat: %v", err)
	}
	return res
}

// TestImplicitFaultFree sanity-checks the BE stepper: energy decays and
// CG converges every step.
func TestImplicitFaultFree(t *testing.T) {
	cfg := ImplicitConfig{Nx: 16, Ny: 24, Nu: 1.0, Steps: 10, Coarsen: 2}
	res := runImplicit(t, 4, cfg)
	if len(res.U) != cfg.Nx*cfg.Ny {
		t.Fatalf("field size %d", len(res.U))
	}
	if res.Recoveries != 0 {
		t.Errorf("recoveries = %d", res.Recoveries)
	}
	for _, it := range res.CGIters {
		if it <= 0 || it >= 500 {
			t.Errorf("suspicious CG iteration count %d", it)
		}
	}
	// BE heat decays: max |u| well below the initial max of ~1.
	if m := la.NrmInf(res.U); m >= 1 || m <= 0 {
		t.Errorf("final max %g out of expected decay range", m)
	}
}

// TestImplicitCoarseRecovery verifies the coarse-bootstrap recovery: the
// run completes, and the recovery error shrinks as the replica gets
// finer (Coarsen=1 is an exact replica, so the trajectory matches the
// fault-free run bitwise).
func TestImplicitCoarseRecovery(t *testing.T) {
	base := ImplicitConfig{Nx: 20, Ny: 30, Nu: 1.0, Steps: 12}
	clean := runImplicit(t, 3, base)

	errFor := func(coarsen int) float64 {
		cfg := base
		cfg.Coarsen = coarsen
		cfg.Faults = plan(fault.StepKill(1, 6))
		res := runImplicit(t, 3, cfg)
		if res.Recoveries != 1 {
			t.Fatalf("coarsen %d: recoveries = %d", coarsen, res.Recoveries)
		}
		return la.NrmInf(la.Sub(res.U, clean.U))
	}

	e1 := errFor(1)
	e2 := errFor(2)
	e4 := errFor(4)
	if e1 > 1e-12 {
		t.Errorf("exact replica should recover exactly, error %g", e1)
	}
	if !(e2 > e1) || !(e4 > e2) {
		t.Errorf("recovery error should grow with coarsening: e1=%g e2=%g e4=%g", e1, e2, e4)
	}
	if e4 > 0.05 {
		t.Errorf("even coarse recovery should stay near the trajectory (diffusion damps the bootstrap error): e4=%g", e4)
	}
	if math.IsNaN(e2) || math.IsNaN(e4) {
		t.Error("NaN in recovered field")
	}
}
