package lflr

import (
	"reflect"
	"testing"
)

// TestSDCRollbackRecoversExactly: an upward exponent flip in the field is
// caught by the energy guard and the local store rollback restores the
// fault-free trajectory bitwise — SkP detection + LFLR recovery composed.
func TestSDCRollbackRecoversExactly(t *testing.T) {
	base := HeatConfig{Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20, EnergyGuard: true}
	clean := runScenario(t, 5, base)
	if clean.SDCDetections != 0 {
		t.Fatalf("energy guard false-positived %d times on a clean run", clean.SDCDetections)
	}

	cfg := base
	// Bit 62 on an O(0.1) value is a huge upward flip: energy explodes.
	cfg.SDC = &SDCEvent{Rank: 2, Step: 47, Index: 5, Bit: 62}
	res := runScenario(t, 5, cfg)
	if res.SDCDetections != 1 {
		t.Fatalf("detections = %d, want 1", res.SDCDetections)
	}
	if res.RollbackSteps == 0 {
		t.Error("expected re-executed steps after rollback")
	}
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			t.Fatalf("element %d differs after SDC rollback: %v vs %v", i, res.U[i], clean.U[i])
		}
	}
	if res.Recoveries != 0 {
		t.Errorf("SDC rollback must not respawn processes, got %d recoveries", res.Recoveries)
	}
}

// TestSDCUndetectedWithoutGuard: the same flip without the guard silently
// corrupts the final field — the baseline the paper's §II-A warns about.
func TestSDCUndetectedWithoutGuard(t *testing.T) {
	base := HeatConfig{Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20}
	clean := runScenario(t, 5, base)

	cfg := base
	cfg.SDC = &SDCEvent{Rank: 2, Step: 47, Index: 5, Bit: 62}
	res := runScenario(t, 5, cfg)
	if res.SDCDetections != 0 {
		t.Fatalf("guard disabled but detections = %d", res.SDCDetections)
	}
	same := true
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("an undetected exponent flip should corrupt the final field")
	}
}

// TestSDCDownwardFlipEvadesGuard documents the detector's asymmetry: a
// flip that clears the exponent (shrinking the value) reduces energy and
// passes the non-increase test — the honest limitation T1 quantifies.
func TestSDCDownwardFlipEvadesGuard(t *testing.T) {
	base := HeatConfig{Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20, EnergyGuard: true}
	cfg := base
	// Bit 52 flip of a value with that bit set: halves-ish the value.
	cfg.SDC = &SDCEvent{Rank: 1, Step: 30, Index: 3, Bit: 52}
	res := runScenario(t, 5, cfg)
	if res.SDCDetections != 0 {
		t.Skip("this particular flip happened to raise energy; asymmetry not exercised")
	}
	// Undetected, but the field stays finite and the run completes.
	if len(res.U) == 0 {
		t.Error("run should complete despite the silent flip")
	}
}

// TestSDCAndProcessFailureTogether: a silent flip and a process kill in
// the same run, both recovered, final state bitwise clean.
func TestSDCAndProcessFailureTogether(t *testing.T) {
	base := HeatConfig{Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20, EnergyGuard: true}
	clean := runScenario(t, 5, base)

	cfg := base
	cfg.SDC = &SDCEvent{Rank: 0, Step: 33, Index: 2, Bit: 62}
	cfg.Killer = &stepKillerAt{rank: 3, step: 71}
	res := runScenario(t, 5, cfg)
	if res.SDCDetections != 1 || res.Recoveries != 1 {
		t.Fatalf("detections=%d recoveries=%d, want 1/1", res.SDCDetections, res.Recoveries)
	}
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			t.Fatalf("element %d differs after combined recovery", i)
		}
	}
}

// stepKillerAt avoids importing fault in this file (lflr tests already
// use fault elsewhere; this keeps the combined test self-contained).
type stepKillerAt struct {
	rank, step int
	used       bool
}

func (k *stepKillerAt) ShouldDie(rank, step int) bool {
	if k == nil || rank != k.rank {
		return false
	}
	if k.used || step != k.step {
		return false
	}
	k.used = true
	return true
}

// TestSDCConfigIsReusable: a config holding an SDCEvent describes any
// number of runs — the fired-once state belongs to the run, not to the
// caller's event, so the same value run twice injects the flip twice.
func TestSDCConfigIsReusable(t *testing.T) {
	heat := HeatConfig{Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20, EnergyGuard: true,
		SDC: &SDCEvent{Rank: 2, Step: 47, Index: 5, Bit: 62}}
	h1, h2 := runScenario(t, 5, heat), runScenario(t, 5, heat)
	if h1.SDCDetections != 1 || h1.RollbackSteps != 8 {
		t.Errorf("first heat run: %d detections, %d rollback steps, want 1 and 8", h1.SDCDetections, h1.RollbackSteps)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Errorf("second heat run of one config differs: detections %d then %d, rollback %d then %d",
			h1.SDCDetections, h2.SDCDetections, h1.RollbackSteps, h2.RollbackSteps)
	}

	adv := AdvectConfig{N: 200, C: 0.5, Steps: 120, PersistEvery: 20, MassGuard: true,
		SDC: &SDCEvent{Rank: 1, Step: 63, Index: 4, Bit: 54}}
	a1, a2 := runAdvect(t, 4, adv), runAdvect(t, 4, adv)
	if a1.SDCDetections != 1 || !reflect.DeepEqual(a1, a2) {
		t.Errorf("advection runs of one config: detections %d then %d, want 1 and 1", a1.SDCDetections, a2.SDCDetections)
	}
}
