package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/problems"
	"repro/internal/srp"
)

// F6 — FT-GMRES vs plain GMRES on an unreliable substrate (paper §III-D:
// reliable outer + unreliable inner "retain[s] the robustness of a fully
// reliable approach").
func F6(rc RunCtx) *Table {
	seed := rc.Seed
	t := &Table{
		ID:      "F6",
		Title:   "FT-GMRES (reliable outer / faulty inner) vs plain GMRES on faulty hardware",
		Claim:   "§III-D: most data and flops run unreliably, yet the outer iteration preserves correctness",
		Columns: []string{"fault rate", "variant", "converged", "outer iters", "faults", "discards", "true rel residual", "err vs x*"},
	}
	a := problems.ConvDiff2D(20, 20, 20, 10)
	op := krylov.NewCSROp(a)
	b, xstar := problems.ManufacturedRHS(a)
	bnorm := la.Nrm2(b)

	for _, rate := range []float64{0, 1e-4, 1e-3, 1e-2} {
		// FT-GMRES, then plain GMRES with everything on the faulty
		// substrate, each on its own run of one plan.
		faults := fault.Plan{Seed: seed, Entries: []fault.Entry{fault.Sustained(fault.SiteApply, rate)}}
		ft, ftErr := srp.FTGMRES(op, faults, b, srp.Options{InnerIters: 20, Tol: 1e-8, MaxOuter: 60})
		plain, plainErr := srp.UnreliableGMRES(op, faults, b, 40, 40*30, 1e-8)
		for _, v := range []struct {
			name, discards string
			res            srp.Result
			err            error
		}{{"FT-GMRES", fmt.Sprint(ft.InnerDiscards), ft, ftErr}, {"plain GMRES", "n/a", plain, plainErr}} {
			if v.err == nil {
				t.AddRow(f(rate), v.name, yesNo(v.res.Stats.Converged), fmt.Sprint(v.res.Stats.Iterations),
					fmt.Sprint(v.res.FaultsInjected), v.discards,
					f(la.Nrm2(la.Sub(b, a.MatVec(v.res.X, nil)))/bnorm), f(la.NrmInf(la.Sub(v.res.X, xstar))))
			}
		}
	}
	t.Notes = append(t.Notes,
		"rate = per-element bit-flip probability per SpMV inside the unreliable region",
		"FT-GMRES outer iterations and storage are reliable; 20 inner iterations per outer step are not",
		"'true rel residual' recomputed on reliable hardware — the number a plain faulty solver silently misreports")
	return t
}

// T4 — the SRP execution-strategy cost model (paper §II-D: "even very
// expensive approaches such as triple modular redundancy (TMR) can still
// be much faster than a fully unreliable approach").
func T4(rc RunCtx) *Table {
	t := &Table{
		ID:      "T4",
		Title:   "Execution strategies on unreliable hardware: expected completion time",
		Claim:   "§II-D: TMR (3x) and SRP mixes beat detect-and-restart once faults are frequent",
		Columns: []string{"fault rate λ", "unreliable+restart", "all-reliable (2x)", "all-TMR (3x)", "SRP mix", "winner"},
	}
	const work = 1e6 // operations in the job
	const fracReliable = 0.05
	const srpOverhead = 1.0
	for _, lambda := range []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5} {
		u, r, m, s := srp.ExpectedTimes(work, lambda, fracReliable, srpOverhead)
		best, name := u, "unreliable"
		if r < best {
			best, name = r, "reliable"
		}
		if m < best {
			best, name = m, "TMR"
		}
		if s < best {
			name = "SRP"
		}
		t.AddRow(f(lambda), f(u), f(r), f(m), f(s), name)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("job of %.0e ops; SRP holds %.0f%% of data/compute reliable, inner-fault absorption overhead factor %g", work, 100*fracReliable, srpOverhead),
		"unreliable+restart: expected (e^{λW}-1)/λ — explodes once λW > 1, exactly the paper's argument",
		"(seed unused: the table is the analytic expectation)")
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
