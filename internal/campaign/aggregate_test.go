package campaign

import (
	"math"
	"strings"
	"testing"
)

func TestQuantilesNearestRank(t *testing.T) {
	q := newQuantiles([]float64{4, 1, 3, 2, 5})
	if q.P50 != 3 || q.P90 != 5 || q.P99 != 5 {
		t.Errorf("quantiles of 1..5: %+v", q)
	}
	if q := newQuantiles([]float64{7}); q.P50 != 7 || q.P99 != 7 {
		t.Errorf("singleton quantiles: %+v", q)
	}
	if q := newQuantiles(nil); q.P50 != 0 {
		t.Errorf("empty quantiles: %+v", q)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	q = newQuantiles(vals)
	if q.P50 != 50 || q.P90 != 90 || q.P99 != 99 {
		t.Errorf("quantiles of 1..100: %+v", q)
	}
}

// aggRecords builds a complete record set for the given spec by
// synthesising outcomes with mk (no solves run).
func aggRecords(spec Spec, mk func(cell Cell, rep int) (converged bool, iters int, vtime float64)) []Record {
	var recs []Record
	for _, cell := range spec.Cells() {
		for rep := 0; rep < spec.Replicates; rep++ {
			conv, iters, vt := mk(cell, rep)
			recs = append(recs, Record{
				Schema: RunSchema, Key: cell.RunKey(rep), Cell: cell.Index, Rep: rep,
				Seed:   RunSeed(spec.Seed, cell.Index, rep),
				Solver: cell.Solver, Precond: cell.Precond, Problem: cell.Problem,
				Ranks: cell.Ranks, Fault: cell.Fault.String(),
				Converged: conv, Iters: iters, VTime: vt, Relres: 1e-9,
			})
		}
	}
	return recs
}

func synthSpec() Spec {
	s := testSpec()
	s.Solvers = []string{SolverPCG}
	s.Preconds = []string{PrecondNone}
	s.Faults = []FaultSpec{{Model: FaultNone}}
	s.Replicates = 4
	return s // exactly one cell, 4 replicates
}

func TestAggregateTTSMath(t *testing.T) {
	spec := synthSpec()
	// 3 of 4 replicates succeed; vtimes 1, 2, 3, 10 (the failure).
	vt := []float64{1, 2, 3, 10}
	recs := aggRecords(spec, func(c Cell, rep int) (bool, int, float64) {
		return rep < 3, 10 * (rep + 1), vt[rep]
	})
	agg, err := AggregateRecords(spec, "t", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Cells) != 1 {
		t.Fatalf("%d cells", len(agg.Cells))
	}
	cs := agg.Cells[0]
	if cs.Successes != 3 || cs.Replicates != 4 || cs.SuccessRate != 0.75 {
		t.Errorf("success accounting: %+v", cs)
	}
	// Quantiles over successes only: iters {10,20,30}, vtime {1,2,3}.
	if cs.Iters.P50 != 20 || cs.VTime.P50 != 2 {
		t.Errorf("quantiles over successes: iters %+v vtime %+v", cs.Iters, cs.VTime)
	}
	// E[TTS] = mean(all vtimes)/successRate = 4 / 0.75.
	want := 4.0 / 0.75
	if cs.ExpectedTTS == nil || math.Abs(cs.ExpectedTTS.Mean-want) > 1e-12 {
		t.Fatalf("expected TTS %v, want mean %g", cs.ExpectedTTS, want)
	}
	if !(cs.ExpectedTTS.CILo <= cs.ExpectedTTS.Mean+1e-12) || cs.ExpectedTTS.CIHi < cs.ExpectedTTS.CILo {
		t.Errorf("bootstrap CI inverted: %+v", cs.ExpectedTTS)
	}

	// No successes → the expectation diverges and is omitted.
	recs = aggRecords(spec, func(c Cell, rep int) (bool, int, float64) { return false, 0, 1 })
	agg, err = AggregateRecords(spec, "t", recs)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cells[0].ExpectedTTS != nil {
		t.Error("all-failed cell reports an expected TTS")
	}
}

// TestErroredReplicatesAreExcludedFromStats: a harness error is not a
// fault-model outcome — it must show up in Errors only, never deflate
// the success rate or the expected TTS.
func TestErroredReplicatesAreExcludedFromStats(t *testing.T) {
	spec := synthSpec()
	recs := aggRecords(spec, func(c Cell, rep int) (bool, int, float64) { return true, 10, 2 })
	recs[3].Err = "boom"
	recs[3].Converged = false
	recs[3].VTime = 0
	agg, err := AggregateRecords(spec, "t", recs)
	if err != nil {
		t.Fatal(err)
	}
	cs := agg.Cells[0]
	if cs.Errors != 1 || cs.Replicates != 4 {
		t.Fatalf("error accounting: %+v", cs)
	}
	if cs.SuccessRate != 1 || cs.Successes != 3 {
		t.Errorf("errored replicate deflated the success rate: %+v", cs)
	}
	if cs.ExpectedTTS == nil || cs.ExpectedTTS.Mean != 2 {
		t.Errorf("errored replicate's zero vtime leaked into E[TTS]: %+v", cs.ExpectedTTS)
	}
}

func TestAggregateStrictness(t *testing.T) {
	spec := synthSpec()
	ok := func(c Cell, rep int) (bool, int, float64) { return true, 1, 1 }

	// Missing run.
	recs := aggRecords(spec, ok)
	if _, err := AggregateRecords(spec, "t", recs[:len(recs)-1]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing run not reported: %v", err)
	}

	// Foreign record.
	recs = aggRecords(spec, ok)
	alien := recs[0]
	alien.Key = "sor/none/poisson/p2/none/r0"
	if _, err := AggregateRecords(spec, "t", append(recs, alien)); err == nil || !strings.Contains(err.Error(), "does not belong") {
		t.Errorf("foreign record not rejected: %v", err)
	}

	// Wrong seed — records from a different campaign seed.
	recs = aggRecords(spec, ok)
	recs[0].Seed++
	if _, err := AggregateRecords(spec, "t", recs); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch not rejected: %v", err)
	}

	// Duplicates (overlapping shard files) are tolerated, first wins.
	recs = aggRecords(spec, ok)
	dup := append(append([]Record(nil), recs...), recs...)
	agg, err := AggregateRecords(spec, "t", dup)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != len(recs) {
		t.Errorf("duplicates double-counted: %d runs", agg.Runs)
	}
}

func TestBootstrapIsDeterministic(t *testing.T) {
	spec := synthSpec()
	recs := aggRecords(spec, func(c Cell, rep int) (bool, int, float64) {
		return rep != 2, 5 + rep, float64(1+rep) * 0.5
	})
	a, err := AggregateRecords(spec, "t", recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AggregateRecords(spec, "t", recs)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Cells[0].ExpectedTTS != *b.Cells[0].ExpectedTTS {
		t.Errorf("bootstrap CIs differ across aggregations: %+v vs %+v",
			a.Cells[0].ExpectedTTS, b.Cells[0].ExpectedTTS)
	}
}
