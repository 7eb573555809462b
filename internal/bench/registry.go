package bench

import (
	"fmt"
	"sort"
	"strconv"

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

// Registry lists every experiment keyed by ID.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"F1":  {ID: "F1", Run: F1},
		"T1":  {ID: "T1", Run: T1},
		"F2":  {ID: "F2", Run: F2, Slow: true},
		"F3":  {ID: "F3", Run: F3, Slow: true},
		"T2":  {ID: "T2", Run: T2, Slow: true},
		"F4":  {ID: "F4", Run: F4},
		"F5":  {ID: "F5", Run: F5},
		"T3":  {ID: "T3", Run: T3},
		"F6":  {ID: "F6", Run: F6},
		"T4":  {ID: "T4", Run: T4},
		"F7":  {ID: "F7", Run: F7},
		"F8":  {ID: "F8", Run: F8},
		"F9":  {ID: "F9", Run: F9},
		"F10": {ID: "F10", Run: F10},
		"A1":  {ID: "A1", Run: A1, Slow: true},
		"A2":  {ID: "A2", Run: A2, Slow: true},
		"P1":  {ID: "P1", Run: P1},
		"P2":  {ID: "P2", Run: P2},
		"P3":  {ID: "P3", Run: P3, Slow: true},
		"P4":  {ID: "P4", Run: P4, Slow: true},
		"C1":  {ID: "C1", Run: C1, Slow: true},
	}
}

// IDs returns all experiment IDs in display order: figures, tables,
// ablations, preconditioning, then campaigns, numerically within each
// group.
func IDs() []string {
	var ids []string
	for id := range Registry() {
		ids = append(ids, id)
	}
	group := func(id string) int {
		switch id[0] {
		case 'F':
			return 0
		case 'T':
			return 1
		case 'A':
			return 2
		case 'P':
			return 3
		default:
			return 4
		}
	}
	num := func(id string) int {
		n, err := strconv.Atoi(id[1:])
		if err != nil {
			return 0
		}
		return n
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if group(a) != group(b) {
			return group(a) < group(b)
		}
		return num(a) < num(b)
	})
	return ids
}

// RunMetered executes one experiment by ID under the given context —
// the harness entry point (quick scaling, ledger attachment).
func RunMetered(id string, rc RunCtx) (*Table, error) {
	e, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(rc), nil
}
