package lflr

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
)

// ledgerTuple is one run's communication fingerprint.
type ledgerTuple struct {
	sends, recvs, colls int
	maxClock            float64
}

func runHeatLedger(t *testing.T, kill bool) (ledgerTuple, Result) {
	t.Helper()
	cfg := HeatConfig{Nx: 48, Ny: 64, Nu: 0.25, Steps: 400, PersistEvery: 20}
	if kill {
		cfg.Faults = plan(fault.StepKill(3, 237))
	}
	led := &comm.Ledger{}
	res, err := RunHeat(comm.Config{Ranks: 8, Cost: machine.DefaultCostModel(), Seed: 1, Ledger: led}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := led.Snapshot()
	return ledgerTuple{sends: s.Stats.Sends, recvs: s.Stats.Recvs, colls: s.Stats.Collective, maxClock: s.MaxClock}, res
}

// TestHeatKillLedgerExact pins experiment F4's determinism: with a rank
// killed mid-step, the run's whole communication fingerprint — sends,
// receives, collectives and the peak virtual clock, not just the
// recovered field — is the same value on every rerun and at every
// GOMAXPROCS.
//
// Rank 3 dies at the top of step 237, before its halo sends. Failure
// visibility is ULFM-like: Die revokes the world, and each survivor's
// step-237 operations complete or return ErrRankFailed depending on
// whether they reach the world before the revocation. Under comm's
// run-to-block driver "before" is a property of the program (ranks run
// one at a time in FIFO order), not of the OS scheduler, so the ledger
// is a constant. The fault-free twin is held to the same standard.
func TestHeatKillLedgerExact(t *testing.T) {
	reruns := 100
	if testing.Short() {
		reruns = 10
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	cleanBase, cleanRes := runHeatLedger(t, false)
	killBase, killRes := runHeatLedger(t, true)
	if killRes.Recoveries != 1 {
		t.Fatalf("kill run performed %d recoveries, want 1", killRes.Recoveries)
	}
	if killBase == cleanBase {
		t.Fatalf("kill and fault-free runs share the fingerprint %+v: the kill did not happen", killBase)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < reruns; i++ {
			if tup, res := runHeatLedger(t, false); tup != cleanBase || res.Summary != cleanRes.Summary {
				t.Fatalf("GOMAXPROCS %d fault-free rerun %d: %+v energy %.17g, want %+v energy %.17g",
					procs, i, tup, res.Summary, cleanBase, cleanRes.Summary)
			}
			tup, res := runHeatLedger(t, true)
			if tup != killBase {
				t.Fatalf("GOMAXPROCS %d kill rerun %d: ledger %+v, want %+v", procs, i, tup, killBase)
			}
			if res.Summary != killRes.Summary || res.ReplaySteps != killRes.ReplaySteps || res.Recoveries != killRes.Recoveries {
				t.Fatalf("GOMAXPROCS %d kill rerun %d: energy %.17g replay %d recoveries %d, want %.17g / %d / %d", procs, i,
					res.Summary, res.ReplaySteps, res.Recoveries, killRes.Summary, killRes.ReplaySteps, killRes.Recoveries)
			}
		}
	}
}
