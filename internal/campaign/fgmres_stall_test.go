package campaign

import (
	"testing"
	"time"
)

// TestFGMRESAllCyclesAbandonedTerminates replays the identity perf/README
// lists under "Known hazards": on the quick spec at seed 7, replicate 109
// of fgmres/none/poisson/p2/bitflip@0.001/uniform@0.25 corrupts the
// iterate so that every FGMRES cycle is abandoned at its first Arnoldi
// step. The solve used to spin there forever, Iterations never
// advancing; the stall budget now ends it as an unconverged run.
func TestFGMRESAllCyclesAbandonedTerminates(t *testing.T) {
	const key, rep = "fgmres/none/poisson/p2/bitflip@0.001/uniform@0.25", 109
	spec := QuickSpec()
	spec.Seed = 7
	for _, cell := range spec.Cells() {
		if cell.Key() != key {
			continue
		}
		done := make(chan Record, 1)
		go func() { done <- ExecuteRun(&spec, cell, rep, nil) }()
		select {
		case rec := <-done:
			if rec.Err != "" || rec.Converged || rec.Relres != -1 {
				t.Errorf("record %+v, want an unconverged run with the non-finite residual sentinel", rec)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the solve did not terminate within 10 s")
		}
		return
	}
	t.Fatalf("the quick spec has no cell %s", key)
}
