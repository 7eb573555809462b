package campaign

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// transientSpec is a 2-cell, 1-replicate grid for the retry tests.
func transientSpec() Spec {
	return Spec{
		Name: "transient-test", Seed: 21,
		Solvers:    []string{SolverPCG},
		Preconds:   []string{PrecondNone, PrecondJacobi},
		Problems:   []string{ProblemPoisson},
		Ranks:      []int{2},
		Faults:     []FaultSpec{{Model: FaultNone}},
		Replicates: 1, Grid: 8, Tol: 1e-6, MaxIter: 200,
	}
}

// TestResumeRetriesTransientRecords: a record carrying a transient
// infrastructure error (a solve service's transport failure) is NOT
// "decided" — resume re-executes it, and aggregation prefers the
// retry's real outcome over the stale transient record that precedes
// it in the file. A non-transient harness error stays decided, as
// documented in docs/CAMPAIGNS.md.
func TestResumeRetriesTransientRecords(t *testing.T) {
	spec := transientSpec()
	cells := spec.Cells()
	if len(cells) != 2 {
		t.Fatalf("spec expands to %d cells, want 2", len(cells))
	}
	out := filepath.Join(t.TempDir(), "runs.jsonl")

	// Seed the file with one transient failure for cell 0 and one
	// completed run for cell 1.
	w, err := NewWriter(out, false)
	if err != nil {
		t.Fatal(err)
	}
	stale := cells[0].Record(&spec, 0)
	stale.Err = "service: connection refused"
	stale.Transient = true
	if err := w.Write(stale); err != nil {
		t.Fatal(err)
	}
	good := ExecuteRunEnv(&spec, cells[1], 0, nil)
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st, err := Run(Options{Spec: spec, Out: out, Resume: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed != 1 || st.Executed != 1 {
		t.Fatalf("resumed/executed = %d/%d, want 1/1 (the transient record must be retried, the real one skipped)", st.Resumed, st.Executed)
	}

	// Aggregation must pick the retry, not the stale transient line
	// that still precedes it in the file.
	agg, err := AggregateFiles(spec, "t", out)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range agg.Cells {
		if cs.Errors != 0 {
			t.Errorf("cell %s still aggregates %d error(s) after the retry", cs.Key, cs.Errors)
		}
		if cs.Successes != 1 {
			t.Errorf("cell %s has %d successes, want 1", cs.Key, cs.Successes)
		}
	}

	// And the retried record is byte-identical to direct execution.
	recs, err := ReadRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	want := ExecuteRunEnv(&spec, cells[0], 0, nil)
	wb, _ := json.Marshal(want)
	found := false
	for _, r := range recs {
		if r.Key == want.Key && !r.Transient {
			found = true
			rb, _ := json.Marshal(r)
			if string(rb) != string(wb) {
				t.Errorf("retried record differs from direct execution:\n%s\n%s", rb, wb)
			}
		}
	}
	if !found {
		t.Error("no non-transient record found for the retried run")
	}
}

// TestTransientOnlyAggregates: a key whose only record is transient
// still aggregates (as an errored replicate) — a campaign that never
// reached its server reports errors, not "runs missing".
func TestTransientOnlyAggregates(t *testing.T) {
	spec := transientSpec()
	var recs []Record
	for _, cell := range spec.Cells() {
		rec := cell.Record(&spec, 0)
		rec.Err = "service: connection refused"
		rec.Transient = true
		recs = append(recs, rec)
	}
	agg, err := AggregateRecords(spec, "t", recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range agg.Cells {
		if cs.Errors != 1 || cs.Successes != 0 {
			t.Errorf("cell %s: errors/successes = %d/%d, want 1/0", cs.Key, cs.Errors, cs.Successes)
		}
	}
}
