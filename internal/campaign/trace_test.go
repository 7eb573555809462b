package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// traceRun executes one traced run and returns the record, the trace
// bytes and the exported events.
func traceRun(t *testing.T, spec *Spec, cell Cell, rep int) (Record, []byte, []obs.Event) {
	t.Helper()
	tr := newRunTracer(spec, cell, rep)
	rec := ExecuteRunEnv(spec, cell, rep, &ExecEnv{Events: tr.Observe})
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return rec, b.Bytes(), tr.Events()
}

func eventTimes(events []obs.Event, name string) []float64 {
	var out []float64
	for _, ev := range events {
		if ev.Name == name {
			out = append(out, ev.T)
		}
	}
	return out
}

// TestTraceByteIdenticalAcrossReruns pins the determinism contract for
// the richest non-kill trace: an ftgmres bitflip run emits iterations,
// per-rank fault injections and discards, and rerunning the same seeded
// run must reproduce the trace byte for byte. It also pins that tracing
// is an observer: the traced record equals the untraced one.
func TestTraceByteIdenticalAcrossReruns(t *testing.T) {
	spec := testSpec()
	cell := Cell{
		Solver: SolverFTGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff,
		Ranks: 2, Fault: FaultSpec{Model: FaultBitflip, Rate: 5e-3},
	}
	rec1, bytes1, events := traceRun(t, &spec, cell, 0)
	rec2, bytes2, _ := traceRun(t, &spec, cell, 0)
	if rec1.Err != "" {
		t.Fatal(rec1.Err)
	}
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatalf("trace not byte-identical across reruns:\n--- 1 ---\n%s--- 2 ---\n%s", bytes1, bytes2)
	}
	if rec2 != rec1 {
		t.Fatalf("rerun record differs: %+v vs %+v", rec1, rec2)
	}
	if plain := ExecuteRunEnv(&spec, cell, 0, nil); plain != rec1 {
		t.Fatalf("tracing perturbed the run: traced %+v, untraced %+v", rec1, plain)
	}
	for _, name := range []string{"run_begin", "attempt_begin", "iteration", "fault_inject", "attempt_end", "run_end"} {
		if len(eventTimes(events, name)) == 0 {
			t.Errorf("trace has no %s event", name)
		}
	}
	if n := len(eventTimes(events, "iteration")); n != rec1.Iters {
		t.Errorf("trace has %d iteration events, record reports %d iterations", n, rec1.Iters)
	}
	// Export order is the deterministic timeline: nondecreasing T.
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("events out of order: %+v before %+v", events[i-1], events[i])
		}
	}
	if last := events[len(events)-1]; last.Name != "run_end" || last.T != rec1.VTime {
		t.Errorf("final event %+v; want run_end at the record's vtime %g", last, rec1.VTime)
	}
}

// TestRankKillTraceEvents pins the acceptance shape for a rank-kill
// cell: each failure shows up as a kill, a restart charged at the
// victim's death clock, and a recovery opening the next attempt — with
// monotone virtual timestamps throughout.
func TestRankKillTraceEvents(t *testing.T) {
	spec := testSpec()
	spec.MaxRestarts = 8
	cell := Cell{
		Solver: SolverGMRES, Precond: PrecondNone, Problem: ProblemPoisson,
		Ranks: 2, Fault: FaultSpec{Model: FaultRankKill, MTBF: 15},
	}
	rec, _, events := traceRun(t, &spec, cell, 0)
	if rec.Err != "" {
		t.Fatal(rec.Err)
	}
	if rec.Restarts == 0 {
		t.Fatal("MTBF 15 produced no restarts; the trace has nothing to pin")
	}
	kills := eventTimes(events, "rank_kill")
	restarts := eventTimes(events, "restart")
	recoveries := eventTimes(events, "recovery")
	if len(kills) != rec.Restarts || len(restarts) != rec.Restarts || len(recoveries) != rec.Restarts {
		t.Fatalf("got %d kills, %d restarts, %d recoveries; record has %d restarts",
			len(kills), len(restarts), len(recoveries), rec.Restarts)
	}
	for i := range kills {
		if !(kills[i] <= restarts[i] && restarts[i] <= recoveries[i]) {
			t.Errorf("failure %d out of order: kill %g, restart %g, recovery %g",
				i, kills[i], restarts[i], recoveries[i])
		}
		if i > 0 && kills[i] < recoveries[i-1] {
			t.Errorf("kill %d at %g precedes previous recovery at %g", i, kills[i], recoveries[i-1])
		}
	}
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("events out of order: %+v before %+v", events[i-1], events[i])
		}
	}
}

// TestEngineTraceDir runs a small shard with tracing on and checks one
// well-formed repro-trace/v1 file (plus Chrome sibling) lands per run.
func TestEngineTraceDir(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.jsonl")
	st, err := Run(Options{
		Spec: spec, Workers: 2, Out: out,
		TraceDir: filepath.Join(dir, "traces"), TraceChrome: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed == 0 {
		t.Fatal("no runs executed")
	}
	for _, ref := range spec.ShardRuns(0, 1) {
		key := ref.Cell.RunKey(ref.Rep)
		path := filepath.Join(dir, "traces", TraceFileName(key))
		// The strict reader checks the schema tag and that the header's
		// event count matches the event lines.
		tr, err := obs.ReadTraceFile(path)
		if err != nil {
			t.Fatalf("missing or malformed trace for %s: %v", key, err)
		}
		if tr.Key != key || len(tr.Events) == 0 {
			t.Fatalf("%s: key %q with %d events", path, tr.Key, len(tr.Events))
		}
		chrome := strings.TrimSuffix(path, ".trace.jsonl") + ".chrome.json"
		cb, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatalf("missing chrome trace: %v", err)
		}
		var ct struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(cb, &ct); err != nil || len(ct.TraceEvents) == 0 {
			t.Fatalf("%s: bad chrome trace (err %v, %d events)", chrome, err, len(ct.TraceEvents))
		}
	}
	// Tracing is an observer: engine output matches an untraced shard.
	out2 := filepath.Join(dir, "runs2.jsonl")
	if _, err := Run(Options{Spec: spec, Workers: 2, Out: out2}); err != nil {
		t.Fatal(err)
	}
	recs1, err := ReadRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := ReadRecords(out2)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Record, len(recs1))
	for _, r := range recs1 {
		byKey[r.Key] = r
	}
	for _, r := range recs2 {
		if byKey[r.Key] != r {
			t.Fatalf("traced and untraced records differ for %s", r.Key)
		}
	}
}
