package lflr

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/problems"
)

func runAdvect(t *testing.T, p int, cfg AdvectConfig) AdvectResult {
	t.Helper()
	res, err := RunAdvection(heatWorld(p), NewStore(), cfg)
	if err != nil {
		t.Fatalf("RunAdvection: %v", err)
	}
	return res
}

// TestAdvectionMatchesSerial: the distributed periodic ring equals the
// serial reference bitwise.
func TestAdvectionMatchesSerial(t *testing.T) {
	const n, steps = 240, 150
	const cfl = 0.6
	ref := problems.NewAdvection1D(n, cfl)
	ref.Run(steps)

	res := runAdvect(t, 5, AdvectConfig{N: n, C: cfl, Steps: steps, PersistEvery: 25})
	if len(res.U) != n {
		t.Fatalf("field size %d", len(res.U))
	}
	for i := range res.U {
		if res.U[i] != ref.U[i] {
			t.Fatalf("cell %d differs: %v vs %v", i, res.U[i], ref.U[i])
		}
	}
	if math.Abs(res.Mass-ref.Mass()) > 1e-10 {
		t.Errorf("mass mismatch: %v vs %v", res.Mass, ref.Mass())
	}
}

// TestAdvectionMassConserved: the invariant the guard relies on holds to
// rounding over a long run.
func TestAdvectionMassConserved(t *testing.T) {
	a := problems.NewAdvection1D(300, 0.8)
	m0 := a.Mass()
	a.Run(2000)
	if d := math.Abs(a.Mass() - m0); d > 1e-9*(1+m0) {
		t.Errorf("mass drifted by %g over 2000 steps", d)
	}
}

// TestAdvectionKillRecoversBitwise: process failure on the ring, replay
// from the left neighbour's log, bitwise recovery.
func TestAdvectionKillRecoversBitwise(t *testing.T) {
	const n, steps = 200, 120
	base := AdvectConfig{N: n, C: 0.5, Steps: steps, PersistEvery: 20}
	clean := runAdvect(t, 4, base)

	for _, kill := range []struct{ rank, step int }{
		{2, 47},
		{0, 31}, // rank 0's left neighbour is rank P-1: the ring wrap path
		{3, 119},
	} {
		cfg := base
		cfg.Faults = plan(fault.StepKill(kill.rank, kill.step))
		res := runAdvect(t, 4, cfg)
		if res.Recoveries != 1 {
			t.Errorf("kill %v: recoveries = %d", kill, res.Recoveries)
		}
		for i := range res.U {
			if res.U[i] != clean.U[i] {
				t.Errorf("kill %v: cell %d differs", kill, i)
				break
			}
		}
	}
}

// TestAdvectionMassGuardIsTwoSided: unlike the heat app's energy-decay
// guard, the mass-equality guard catches both upward AND downward flips.
func TestAdvectionMassGuardIsTwoSided(t *testing.T) {
	const n, steps = 200, 120
	base := AdvectConfig{N: n, C: 0.5, Steps: steps, PersistEvery: 20, MassGuard: true}
	clean := runAdvect(t, 4, base)
	if clean.SDCDetections != 0 {
		t.Fatalf("false positives: %d", clean.SDCDetections)
	}

	// u values live in [1-ε, 2+ε]: exponent field makes bit 62 an upward
	// flip and bit 56 (a set bit of exponent 1023/1024) a downward one.
	for _, tc := range []struct {
		name string
		bit  int
	}{
		{"upward", 62},
		{"downward", 54},
	} {
		cfg := base
		cfg.Faults = plan(fault.StepFlip(1, 63, 4, tc.bit))
		res := runAdvect(t, 4, cfg)
		if res.SDCDetections != 1 {
			t.Errorf("%s flip (bit %d): detections = %d, want 1", tc.name, tc.bit, res.SDCDetections)
			continue
		}
		for i := range res.U {
			if res.U[i] != clean.U[i] {
				t.Errorf("%s flip: cell %d differs after rollback", tc.name, i)
				break
			}
		}
	}
}

// TestAdvectionGuardOffCorrupts: without the guard the downward flip
// silently pollutes the result — the contrast F10 tabulates.
func TestAdvectionGuardOffCorrupts(t *testing.T) {
	const n, steps = 200, 120
	base := AdvectConfig{N: n, C: 0.5, Steps: steps, PersistEvery: 20}
	clean := runAdvect(t, 4, base)
	cfg := base
	cfg.Faults = plan(fault.StepFlip(1, 63, 4, 54))
	res := runAdvect(t, 4, cfg)
	same := true
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("unguarded flip should corrupt the field")
	}
}
