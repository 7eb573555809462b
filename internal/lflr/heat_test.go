package lflr

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/problems"
)

func heatWorld(p int) *comm.World {
	return comm.NewWorld(comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 11})
}

func runScenario(t *testing.T, p int, cfg HeatConfig) HeatResult {
	t.Helper()
	res, err := RunHeat(heatWorld(p), NewStore(), cfg)
	if err != nil {
		t.Fatalf("RunHeat: %v", err)
	}
	return res
}

// TestHeatMatchesSerial verifies the distributed fault-free run equals
// the serial reference bitwise.
func TestHeatMatchesSerial(t *testing.T) {
	const nx, ny, steps = 24, 32, 60
	const nu = 0.2
	ref := problems.NewHeatGrid(nx, ny, nu)
	ref.Run(steps)

	res := runScenario(t, 4, HeatConfig{Nx: nx, Ny: ny, Nu: nu, Steps: steps, PersistEvery: 10})
	if len(res.U) != nx*ny {
		t.Fatalf("gathered field has %d values, want %d", len(res.U), nx*ny)
	}
	for i := range res.U {
		if res.U[i] != ref.U[i] {
			t.Fatalf("element %d differs: dist %v vs serial %v", i, res.U[i], ref.U[i])
		}
	}
	if res.Recoveries != 0 {
		t.Errorf("unexpected recoveries: %d", res.Recoveries)
	}
}

// TestHeatRecoversBitwise kills a middle rank mid-run and requires the
// recovered trajectory to match the fault-free one exactly: the
// sender-side log replay recomputes the identical floating-point
// sequence.
func TestHeatRecoversBitwise(t *testing.T) {
	const nx, ny, steps = 16, 40, 100
	const nu = 0.25
	base := HeatConfig{Nx: nx, Ny: ny, Nu: nu, Steps: steps, PersistEvery: 20}

	clean := runScenario(t, 5, base)

	for _, kill := range []struct {
		rank, step, wantReplay int
	}{
		{2, 47, 7},  // mid-window: restored 40, replay 40..47
		{0, 31, 11}, // boundary strip: restored 20
		{4, 60, 20}, // persist boundary: dies before persisting 60 → restored 40
		{3, 99, 19}, // last step: restored 80
	} {
		cfg := base
		cfg.Faults = plan(fault.StepKill(kill.rank, kill.step))
		res := runScenario(t, 5, cfg)
		if res.Recoveries != 1 {
			t.Errorf("kill %v: recoveries = %d, want 1", kill, res.Recoveries)
		}
		for i := range res.U {
			if res.U[i] != clean.U[i] {
				t.Errorf("kill %v: element %d differs after recovery: %v vs %v",
					kill, i, res.U[i], clean.U[i])
				break
			}
		}
		if res.FinalClock <= clean.FinalClock {
			t.Errorf("kill %v: recovery should cost virtual time: %g vs clean %g",
				kill, res.FinalClock, clean.FinalClock)
		}
		if res.ReplaySteps != kill.wantReplay {
			t.Errorf("kill %v: replayed %d steps, want %d", kill, res.ReplaySteps, kill.wantReplay)
		}
	}
}

// TestHeatTwoSequentialFailures kills two different (non-adjacent) ranks
// at different steps.
func TestHeatTwoSequentialFailures(t *testing.T) {
	const nx, ny, steps = 12, 30, 80
	base := HeatConfig{Nx: nx, Ny: ny, Nu: 0.2, Steps: steps, PersistEvery: 10}
	clean := runScenario(t, 5, base)

	cfg := base
	cfg.Faults = plan(fault.StepKill(1, 25), fault.StepKill(3, 55))
	res := runScenario(t, 5, cfg)
	if res.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2", res.Recoveries)
	}
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			t.Fatalf("element %d differs after two recoveries", i)
		}
	}
}

// TestHeatPersistEveryStep exercises the k=1 corner (replay never needed;
// recovery is a pure restore).
func TestHeatPersistEveryStep(t *testing.T) {
	const nx, ny, steps = 10, 20, 30
	base := HeatConfig{Nx: nx, Ny: ny, Nu: 0.25, Steps: steps, PersistEvery: 1}
	clean := runScenario(t, 3, base)
	cfg := base
	cfg.Faults = plan(fault.StepKill(1, 15))
	res := runScenario(t, 3, cfg)
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}
