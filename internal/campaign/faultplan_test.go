package campaign

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/lflr"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/problems"
)

// TestStrikesThatCannotFireAreErrors: a fault plan entry with a bit
// outside 0…63, a rank outside the world or an element outside the
// victim's vector is a fault: error before any world is driven — on all
// three paths a plan enters by: an LFLR config, the serial operator
// adapter and the campaign's fault compiler — never a run that silently
// injects nothing.
func TestStrikesThatCannotFireAreErrors(t *testing.T) {
	flip := func(rank, index, bit int) fault.Entry {
		return fault.Entry{Kind: fault.Flip, Rank: rank, Site: fault.SiteStep, At: 47, Index: index, Bit: bit}
	}
	for _, tc := range []struct {
		name string
		e    fault.Entry
	}{
		{"bit 64", flip(2, 5, 64)},
		{"bit -1", flip(2, 5, -1)},
		{"rank 9", flip(9, 5, 62)},
		{"element 128", flip(2, 128, 62)},
	} {
		// LFLR heat on 5 ranks of a 16×40 grid: 128 values per strip.
		var led comm.Ledger
		_, err := lflr.RunHeat(comm.Config{Ranks: 5, Cost: machine.DefaultCostModel(), Ledger: &led}, lflr.HeatConfig{
			Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20, EnergyGuard: true,
			Faults: fault.Plan{Entries: []fault.Entry{tc.e}},
		})
		if ran := led.Snapshot(); err == nil || !strings.HasPrefix(err.Error(), "fault: ") || ran.Ranks != 0 || ran.MaxClock != 0 {
			t.Errorf("lflr, %s: error %v after %d rank(s) ran to %g, want a fault: error first", tc.name, err, ran.Ranks, ran.MaxClock)
		}

		// The serial adapter on a 128-row operator, whose only rank is 0.
		e := tc.e
		e.Site = fault.SiteApply
		if e.Rank == 2 {
			e.Rank = 0
		}
		op := krylov.NewCSROp(problems.Poisson2D(16, 8))
		if _, err := krylov.NewFaultyOp(op, fault.Plan{Entries: []fault.Entry{e}}); err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("serial, %s: error %v, want a fault: error", tc.name, err)
		}
	}

	// The campaign compiles only drawn strikes, so what reaches it
	// malformed is an intensity: a cell the spec's validation never saw
	// records the compiler's error and opens no world.
	spec := testSpec()
	for _, f := range []FaultSpec{
		{Model: FaultBitflip, Rate: 1.5},
		{Model: FaultFaultyPrecond, Rate: -0.1},
		{Model: FaultRankKill, MTBF: 0},
	} {
		attempts := 0
		cell := Cell{Solver: SolverGMRES, Precond: PrecondJacobi, Problem: ProblemPoisson, Ranks: 4, Fault: f}
		rec := ExecuteRunEnv(&spec, cell, 0, &ExecEnv{Events: func(ev obs.Event) {
			if ev.Name == "attempt_begin" {
				attempts++
			}
		}})
		if !strings.HasPrefix(rec.Err, "fault: ") || attempts != 0 {
			t.Errorf("campaign, %s: record error %q after %d attempts, want a fault: error and none", f, rec.Err, attempts)
		}
	}
}
