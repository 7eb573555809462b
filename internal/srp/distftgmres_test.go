package srp

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/problems"
)

// TestDistFTGMRESConvergesUnderFaults runs FT-GMRES on 4 ranks with
// independent per-rank fault injection in the inner operator and checks
// the solution against the exact one, while plain distributed GMRES on
// the same faulty operator does visibly worse.
func TestDistFTGMRESConvergesUnderFaults(t *testing.T) {
	const p = 4
	const rate = 2e-3
	a := problems.ConvDiff2D(16, 16, 20, 10)
	bGlob, xstar := problems.ManufacturedRHS(a)
	cfg := comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 31}

	var ftErr float64
	var ftConv bool
	var discards int
	err := comm.Run(cfg, func(c *comm.Comm) error {
		trusted := dist.NewCSR(c, a)
		faulty, _, err := NewFaultyStack(c, a, rate, 1000, false)
		if err != nil {
			return err
		}
		local := trusted.Scatter(bGlob)
		res, err := DistFTGMRESPreconditioned(c, trusted, faulty, nil, local, Options{
			InnerIters: 15, Tol: 1e-8, MaxOuter: 60, OuterRestart: 30,
		})
		if err != nil {
			return err
		}
		full, err := trusted.Gather(res.X)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			ftErr = la.NrmInf(la.Sub(full, xstar))
			ftConv = res.Stats.Converged
			discards = res.InnerDiscards
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ftConv {
		t.Fatalf("distributed FT-GMRES did not converge (discards %d)", discards)
	}
	if ftErr > 1e-5 {
		t.Errorf("distributed FT-GMRES error %g", ftErr)
	}

	// Baseline: everything faulty.
	var plainErr float64
	var plainConv bool
	err = comm.Run(cfg, func(c *comm.Comm) error {
		faulty, _, err := NewFaultyStack(c, a, rate, 1000, false)
		if err != nil {
			return err
		}
		trusted := dist.NewCSR(c, a)
		local := trusted.Scatter(bGlob)
		x, st, err := krylov.DistGMRES(c, faulty, local, nil, krylov.DistGMRESOptions{
			Restart: 30, Tol: 1e-8, MaxIter: 900,
		})
		if err != nil {
			return err
		}
		full, err := trusted.Gather(x)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			plainErr = la.NrmInf(la.Sub(full, xstar))
			plainConv = st.Converged
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plainConv && plainErr <= 10*ftErr {
		t.Errorf("plain faulty DistGMRES unexpectedly fine: err %g vs ft %g", plainErr, ftErr)
	}
}

// TestDistFTGMRESWithFaultyPreconditionedInner runs the full selective
// -reliability stack: the unreliable inner phase is a GMRES solve
// preconditioned by a *fault-injected* block-Jacobi ILU(0) — both the
// inner operator and its preconditioner corrupt silently — and the
// reliable outer iteration must still reach the exact solution.
func TestDistFTGMRESWithFaultyPreconditionedInner(t *testing.T) {
	const p = 4
	const rate = 1e-3
	a := problems.ConvDiffRot2D(16, 16, 40)
	bGlob, xstar := problems.ManufacturedRHS(a)
	cfg := comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 11}

	var errInf float64
	var conv bool
	var innerSolves int
	err := comm.Run(cfg, func(c *comm.Comm) error {
		trusted := dist.NewCSR(c, a)
		faulty, innerM, err := NewFaultyStack(c, a, rate, 2000, true)
		if err != nil {
			return err
		}
		local := trusted.Scatter(bGlob)
		res, err := DistFTGMRESPreconditioned(c, trusted, faulty, innerM, local, Options{
			InnerIters: 10, Tol: 1e-8, MaxOuter: 60, OuterRestart: 30,
		})
		if err != nil {
			return err
		}
		full, err := trusted.Gather(res.X)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			errInf = la.NrmInf(la.Sub(full, xstar))
			conv = res.Stats.Converged
			innerSolves = res.InnerSolves
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Fatal("FT-GMRES with faulty preconditioned inner did not converge")
	}
	if errInf > 1e-5 {
		t.Errorf("solution error %g", errInf)
	}
	if innerSolves == 0 {
		t.Error("inner phase never ran")
	}
}

// TestDistFTGMRESHooks pins what a distributed FT-GMRES solve reports
// on its world's event stream: iteration events for the *outer*
// iterations only — consecutive numbers on every rank, so the inner
// solves' own iterations stay silent — and a discard event carrying the
// rejected solve's ordinal, identical on every rank, when the inner
// stack is corrupted hard enough to force discards.
func TestDistFTGMRESHooks(t *testing.T) {
	const p = 4
	a := problems.ConvDiff2D(12, 12, 20, 10)
	bGlob, _ := problems.ManufacturedRHS(a)

	type rankObs struct {
		iters    []int
		discards []int
	}
	// One slot per rank: each rank's events arrive on its own goroutine.
	seen := make([]rankObs, p)
	cfg := comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 31,
		Observer: func(ev obs.Event) {
			switch me := &seen[ev.Rank]; ev.Name {
			case obs.EventIteration:
				me.iters = append(me.iters, ev.Iter)
			case obs.EventDiscard:
				me.discards = append(me.discards, ev.Iter)
			}
		}}
	var reportedDiscards int
	err := comm.Run(cfg, func(c *comm.Comm) error {
		trusted := dist.NewCSR(c, a)
		// An absurd fault rate guarantees sanitisation rejects some inner
		// results, so the discard path is exercised deterministically.
		faulty, _, err := NewFaultyStack(c, a, 0.05, 7000, false)
		if err != nil {
			return err
		}
		res, err := DistFTGMRESPreconditioned(c, trusted, faulty, nil, trusted.Scatter(bGlob), Options{
			InnerIters: 10, Tol: 1e-8, MaxOuter: 25, OuterRestart: 25,
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			reportedDiscards = res.InnerDiscards
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen[0].iters) == 0 {
		t.Fatal("no outer-iteration event was emitted")
	}
	for r := 0; r < p; r++ {
		for i, it := range seen[r].iters {
			if it != i+1 {
				t.Fatalf("rank %d: iteration event %d at position %d", r, it, i)
			}
		}
	}
	if reportedDiscards == 0 {
		t.Fatal("expected discards at 5% fault rate")
	}
	for r := 1; r < p; r++ {
		if !slices.Equal(seen[r].discards, seen[0].discards) {
			t.Fatalf("discard consensus broken: rank %d saw %v, rank 0 saw %v",
				r, seen[r].discards, seen[0].discards)
		}
	}
	if len(seen[0].discards) != reportedDiscards {
		t.Fatalf("%d discard events, result reports %d", len(seen[0].discards), reportedDiscards)
	}
}
