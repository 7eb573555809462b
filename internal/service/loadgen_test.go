package service

import (
	"testing"

	"repro/internal/campaign"
)

// TestLoadgenQuickCampaignByteIdentical is the service's acceptance
// test: the whole quick campaign (every runnable solver × precond ×
// problem × ranks × fault cell, 3 replicates) fired as concurrent HTTP
// requests at an in-process solverd — the campaign engine itself is
// the load generator, its Exec hook pointed at the server — must pass
// Smoke: per-run records and aggregate byte-identical to direct
// execution, both caches hit, /metrics reconciled with /stats and with
// the all-rank traces. It is `solverd smoke -spec quick` as a test.
func TestLoadgenQuickCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen runs the full quick campaign twice; skipped in -short")
	}
	rep, err := Smoke(campaign.QuickSpec(), "loadgen", t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Stats.Cache
	t.Logf("loadgen: %d runs, setup cache %d hits / %d misses, problem cache %d hits / %d misses, %d traces",
		rep.Stats.Completed, c.SetupHits, c.SetupMisses, c.ProblemHits, c.ProblemMisses, rep.Traces)
}
