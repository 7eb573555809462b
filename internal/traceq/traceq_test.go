package traceq

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// trace builds a parsed trace directly; tests construct timelines
// without going through a solver run.
func trace(key string, events ...obs.Event) *obs.Trace {
	return &obs.Trace{Key: key, Seed: 1, Events: events}
}

func sp(rank int, start, dur float64, phase string) obs.Event {
	return obs.Event{Rank: rank, T: start, Dur: dur, Name: obs.EventSpan, Detail: phase}
}

func runEnd(t float64) obs.Event {
	return obs.Event{Rank: -1, T: t, Name: "run_end"}
}

// TestExclusiveAttribution pins the stack sweep: nested spans charge
// only their own time to the parent, and virtual time no span covers
// lands in unattributed.
func TestExclusiveAttribution(t *testing.T) {
	tr := trace("gmres/jacobi/poisson/p2/none/r0",
		sp(0, 0, 10, obs.PhasePrecondApply),
		sp(0, 2, 2, obs.PhaseSpMV),
		sp(0, 5, 1, obs.PhaseHaloExchange),
		runEnd(20),
	)
	rp := AnalyzeTrace(tr)
	want := map[string]float64{
		obs.PhasePrecondApply: 7, // 10 - 2 - 1
		obs.PhaseSpMV:         2,
		obs.PhaseHaloExchange: 1,
		PhaseUnattributed:     10,
	}
	for p, w := range want {
		if got := rp.Seconds[p]; got != w {
			t.Errorf("%s: got %g, want %g", p, got, w)
		}
	}
	// Every catalogue phase is present even when never entered.
	for _, p := range AttributionPhases() {
		if _, ok := rp.Seconds[p]; !ok {
			t.Errorf("phase %s missing from Seconds", p)
		}
	}
	if rp.Cell != "gmres/jacobi/poisson/p2/none" {
		t.Errorf("cell %q", rp.Cell)
	}
	if rp.Solver != "gmres" {
		t.Errorf("solver %q", rp.Solver)
	}
	if rp.VTime != 20 {
		t.Errorf("vtime %g", rp.VTime)
	}
}

// TestPerRankIndependence pins that ranks are swept separately and
// averaged: same-interval spans on different ranks each count in full
// on their own rank (RankSeconds), and Seconds is their mean, so a
// run's attribution is comparable whether its trace kept one rank or
// all of them.
func TestPerRankIndependence(t *testing.T) {
	tr := trace("gmres/none/poisson/p2/none/r0",
		sp(0, 0, 5, obs.PhaseSpMV),
		sp(1, 0, 5, obs.PhaseSpMV),
		runEnd(5),
	)
	rp := AnalyzeTrace(tr)
	if got := rp.Seconds[obs.PhaseSpMV]; got != 5 {
		t.Errorf("spmv: got %g, want 5 (mean over both ranks)", got)
	}
	for rank := 0; rank < 2; rank++ {
		if got := rp.RankSeconds[rank][obs.PhaseSpMV]; got != 5 {
			t.Errorf("rank %d spmv: got %g, want 5", rank, got)
		}
	}
	if got := rp.Seconds[PhaseUnattributed]; got != 0 {
		t.Errorf("unattributed: got %g, want 0", got)
	}
	if rp.Share(obs.PhaseSpMV) != 1 {
		t.Errorf("share: got %g", rp.Share(obs.PhaseSpMV))
	}
	if !rp.AllRank() || rp.SpanRanks != 2 || rp.Ranks != 2 {
		t.Errorf("all-rank detection: AllRank=%v SpanRanks=%d Ranks=%d", rp.AllRank(), rp.SpanRanks, rp.Ranks)
	}
}

// TestRecoveryAndDiscardExtraction pins the two side channels:
// restart-recovery spans never enter attribution, and discard events
// surface their inner-solve ordinal.
func TestRecoveryAndDiscardExtraction(t *testing.T) {
	tr := trace("ftgmres/bj-ilu0/convdiff/p2/rankkill-mtbf15/r0",
		sp(0, 0, 4, obs.PhaseSpMV),
		sp(-1, 0, 6, obs.PhaseRestartRecovery),
		obs.Event{Rank: 0, T: 5, Name: "discard", Iter: 3},
		obs.Event{Rank: 0, T: 9, Name: "discard", Iter: 7},
		runEnd(12),
	)
	rp := AnalyzeTrace(tr)
	if len(rp.Recoveries) != 1 || rp.Recoveries[0] != 6 {
		t.Errorf("recoveries %v, want [6]", rp.Recoveries)
	}
	if len(rp.Discards) != 2 || rp.Discards[0] != 3 || rp.Discards[1] != 7 {
		t.Errorf("discards %v, want [3 7]", rp.Discards)
	}
	// The recovery span must not appear as attributed time.
	if _, ok := rp.Seconds[obs.PhaseRestartRecovery]; ok {
		t.Error("restart-recovery leaked into the attribution map")
	}
	if got := rp.Seconds[PhaseUnattributed]; got != 8 {
		t.Errorf("unattributed: got %g, want 8", got)
	}
}

// TestAnalyzeSortsByKey pins that input order does not leak into the
// analysis.
func TestAnalyzeSortsByKey(t *testing.T) {
	a := Analyze([]*obs.Trace{
		trace("gmres/none/poisson/p2/none/r1", runEnd(1)),
		trace("ftgmres/none/poisson/p2/none/r0", runEnd(1)),
	})
	if a.Runs[0].Key != "ftgmres/none/poisson/p2/none/r0" {
		t.Errorf("runs not sorted by key: %q first", a.Runs[0].Key)
	}
}

// TestLoadDirRoundTrip writes real tracer output to disk and loads it
// back through the directory scanner.
func TestLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := obs.NewRunTracer("gmres/none/poisson/p2/none/r0", 7)
	tr.Observe(obs.Event{T: 1, Name: obs.EventSpan, Dur: 2, Detail: obs.PhaseSpMV})
	tr.Observe(obs.Event{T: 10, Rank: -1, Name: "run_end"})
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gmres_none_poisson_p2_none_r0.trace.jsonl")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}
	if got := a.Runs[0].Seconds[obs.PhaseSpMV]; got != 2 {
		t.Errorf("spmv: got %g, want 2", got)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory did not error")
	}
}

// TestBuildReportShape pins that every section renders (with data or
// its explicit empty-state line) and that the CSV header is stable.
func TestBuildReportShape(t *testing.T) {
	a := Analyze([]*obs.Trace{
		trace("gmres/jacobi/poisson/p2/none/r0",
			sp(0, 0, 4, obs.PhaseSpMV), runEnd(10)),
		trace("ftgmres/jacobi/poisson/p2/none/r0",
			sp(0, 0, 3, obs.PhaseSpMV),
			sp(0, 5, 1, obs.PhaseSanitize),
			sp(-1, 0, 2, obs.PhaseRestartRecovery),
			obs.Event{Rank: 0, T: 6, Name: "discard", Iter: 2},
			runEnd(10)),
	})
	rep := BuildReport(a)
	md := string(rep.Markdown)
	for _, want := range []string{
		"## Phase attribution by solver",
		"## ftgmres vs gmres: phase deltas",
		"## Fault-to-recovery latency",
		"## Discard ordinal histogram",
		"| 1-5 | 1 |",
	} {
		if !bytes.Contains(rep.Markdown, []byte(want)) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	csv := string(rep.CSV)
	wantHeader := "section,key,solver,phase,n,seconds,share,share_p50,share_p90,share_p99\n"
	if !bytes.HasPrefix(rep.CSV, []byte(wantHeader)) {
		t.Errorf("CSV header drifted:\n%s", csv[:min(len(csv), 200)])
	}
	for _, want := range []string{"\ncell,", "recovery,", "discard,"} {
		if !bytes.Contains(rep.CSV, []byte(want)) {
			t.Errorf("CSV missing %q rows", want)
		}
	}
	// Rendering is a pure function of the analysis.
	rep2 := BuildReport(a)
	if !bytes.Equal(rep.Markdown, rep2.Markdown) || !bytes.Equal(rep.CSV, rep2.CSV) {
		t.Error("report differs across renders of the same analysis")
	}
}
