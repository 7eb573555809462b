package bench

import (
	"fmt"

	"repro/internal/campaign"
)

// C1 — the campaign layer's resident experiment: a micro fault
// campaign swept in-process, tabulating per-cell success rates and
// expected time-to-solution. Where every other experiment is one
// hand-picked run per row, each row here is a *distribution* over
// randomized replicates — the statistical form of the paper's argument
// (resilient algorithms win in expectation, not on any single run),
// and the wiring that keeps internal/campaign exercised by the
// harness, the perf gate and the registry smoke test.
func C1(rc RunCtx) *Table {
	t := &Table{
		ID:      "C1",
		Title:   "Micro fault campaign: success-rate and expected time-to-solution distributions",
		Claim:   "the paper's comparison is statistical — fault impact shows up in success rates and E[TTS] over many randomized runs",
		Columns: []string{"cell", "success", "iters p50/p90", "E[TTS] (95% CI)", "restarts"},
	}
	spec := campaign.Spec{
		Name:     "bench-c1",
		Seed:     rc.Seed,
		Solvers:  []string{campaign.SolverPCG, campaign.SolverGMRES},
		Preconds: []string{campaign.PrecondNone, campaign.PrecondJacobi},
		Problems: []string{campaign.ProblemPoisson},
		Ranks:    []int{2},
		Faults: []campaign.FaultSpec{
			{Model: campaign.FaultNone},
			{Model: campaign.FaultBitflip, Rate: 2e-3},
			{Model: campaign.FaultRankKill, MTBF: 120},
		},
		Replicates:  6,
		Grid:        10,
		Tol:         1e-6,
		MaxIter:     400,
		MaxRestarts: 3,
	}
	if rc.Quick {
		spec.Solvers = []string{campaign.SolverGMRES}
		spec.Replicates = 2
	}
	var recs []campaign.Record
	for _, cell := range spec.Cells() {
		for rep := 0; rep < spec.Replicates; rep++ {
			recs = append(recs, campaign.ExecuteRunEnv(&spec, cell, rep, &campaign.ExecEnv{Ledger: rc.Ledger}))
		}
	}
	agg, err := campaign.AggregateRecords(spec, "bench-c1", recs)
	if err != nil {
		t.AddRow("campaign", "ERR: "+err.Error())
		return t
	}
	for _, cs := range agg.Cells {
		tts := "n/a (all failed)"
		if cs.ExpectedTTS != nil {
			tts = fmt.Sprintf("%s (%s..%s)", f(cs.ExpectedTTS.Mean), f(cs.ExpectedTTS.CILo), f(cs.ExpectedTTS.CIHi))
		}
		t.AddRow(cs.Key, pct(cs.Successes, cs.Replicates),
			fmt.Sprintf("%.0f/%.0f", cs.Iters.P50, cs.Iters.P90), tts, fmt.Sprint(cs.Restarts))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d cells x %d replicates; per-run seeds derive from (campaign seed, cell, replicate)", len(agg.Cells), spec.Replicates),
		"E[TTS] = mean attempt cost / success rate (restart-until-success), CI by percentile bootstrap",
		"the full sweep engine behind this table is cmd/campaign (see docs/CAMPAIGNS.md)")
	return t
}
