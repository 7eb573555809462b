package bench

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/machine"
)

// RunCtx carries the cross-cutting parameters of one experiment run.
type RunCtx struct {
	Seed uint64
	// Quick asks scaling sweeps to stop at their smallest scales — the
	// harness's quick mode and the registry smoke test use it so every
	// experiment (including the Slow ones) stays affordable.
	Quick bool
	// Ledger, when non-nil, aggregates communication activity across
	// every world the experiment creates (see comm.Ledger).
	Ledger *comm.Ledger
}

// cfg builds the standard world config for an experiment's sub-run,
// wiring through the seed and the activity ledger.
func (rc RunCtx) cfg(p int, noise machine.Noise) comm.Config {
	return comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Noise: noise, Seed: rc.Seed, Ledger: rc.Ledger}
}

// Experiment is one runnable entry of the experiment index (see
// docs/BENCHMARKING.md).
type Experiment struct {
	ID   string
	Run  func(rc RunCtx) *Table
	Slow bool // excluded from -short harness runs
}

// Experiments lists every experiment in display order: figures,
// tables, ablations, preconditioning, then campaigns, numerically
// within each group.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "F1", Run: F1},
		{ID: "F2", Run: F2, Slow: true},
		{ID: "F3", Run: F3, Slow: true},
		{ID: "F4", Run: F4},
		{ID: "F5", Run: F5},
		{ID: "F6", Run: F6},
		{ID: "F7", Run: F7},
		{ID: "F8", Run: F8},
		{ID: "F9", Run: F9},
		{ID: "F10", Run: F10},
		{ID: "T1", Run: T1},
		{ID: "T2", Run: T2, Slow: true},
		{ID: "T3", Run: T3},
		{ID: "T4", Run: T4},
		{ID: "A1", Run: A1, Slow: true},
		{ID: "A2", Run: A2, Slow: true},
		{ID: "P1", Run: P1},
		{ID: "P2", Run: P2},
		{ID: "P3", Run: P3, Slow: true},
		{ID: "P4", Run: P4, Slow: true},
		{ID: "C1", Run: C1, Slow: true},
	}
}

// RunMetered executes one experiment by ID under the given context —
// the harness entry point (quick scaling, ledger attachment).
func RunMetered(id string, rc RunCtx) (*Table, error) {
	var ids []string
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(rc), nil
		}
		ids = append(ids, e.ID)
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
