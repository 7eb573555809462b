package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/obs"
)

// allRankTraceRun executes one run with every rank's spans kept and
// returns the record, the trace bytes and the exported events.
func allRankTraceRun(t *testing.T, spec *Spec, cell Cell, rep int) (Record, []byte, []obs.Event) {
	t.Helper()
	tr := newRunTracer(spec, cell, rep)
	tr.AllRanks = true
	rec := ExecuteRunEnv(spec, cell, rep, &ExecEnv{Events: tr.Observe})
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return rec, b.Bytes(), tr.Events()
}

// TestAllRankTraceIsObserver pins the core contract of all-rank span
// capture: lifting the rank-0 filter changes what the trace contains —
// every rank's spans, with wait attribution on the ranks that blocked —
// and changes nothing else. The record equals untraced execution and
// the trace is byte-identical across reruns.
func TestAllRankTraceIsObserver(t *testing.T) {
	spec := testSpec()
	cell := Cell{
		Solver: SolverGMRES, Precond: PrecondJacobi, Problem: ProblemPoisson,
		Ranks: 2, Fault: FaultSpec{Model: FaultNone},
	}
	rec1, bytes1, events := allRankTraceRun(t, &spec, cell, 0)
	_, bytes2, _ := allRankTraceRun(t, &spec, cell, 0)
	if rec1.Err != "" {
		t.Fatal(rec1.Err)
	}
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatal("all-rank trace not byte-identical across reruns")
	}
	if plain := ExecuteRun(&spec, cell, 0, nil); plain != rec1 {
		t.Fatalf("all-rank tracing perturbed the run: traced %+v, untraced %+v", rec1, plain)
	}
	spanRanks := map[int]int{}
	var waited bool
	for _, ev := range events {
		if ev.Name != obs.EventSpan || ev.Rank < 0 {
			continue
		}
		spanRanks[ev.Rank]++
		if ev.Wait > 0 {
			waited = true
		}
	}
	for rank := 0; rank < cell.Ranks; rank++ {
		if spanRanks[rank] == 0 {
			t.Errorf("no spans from rank %d in an all-rank trace", rank)
		}
	}
	if !waited {
		t.Error("no span carries wait > 0; two ranks of a partitioned grid never block identically")
	}
}

// readTraceDir maps trace file name to content for a whole directory.
func readTraceDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// TestAllRankTracesWorkerInvariant is the race-targeted determinism
// test for live all-rank capture: an all-rank traced campaign writes
// the same trace files byte for byte whether one worker or four
// produced them. Under -race (CI's race job runs -short) this also
// exercises concurrent per-rank span emission into one tracer, across
// simultaneously executing runs.
func TestAllRankTracesWorkerInvariant(t *testing.T) {
	spec := testSpec()
	dirs := [2]string{}
	for i, workers := range []int{1, 4} {
		dir := t.TempDir()
		dirs[i] = dir
		if _, err := Run(Options{
			Spec: spec, Workers: workers,
			Out:      filepath.Join(dir, "runs.jsonl"),
			TraceDir: filepath.Join(dir, "traces"), TraceRanks: "all",
		}); err != nil {
			t.Fatal(err)
		}
	}
	one := readTraceDir(t, filepath.Join(dirs[0], "traces"))
	four := readTraceDir(t, filepath.Join(dirs[1], "traces"))
	if len(one) == 0 || len(one) != len(four) {
		t.Fatalf("trace sets differ: %d files with 1 worker, %d with 4", len(one), len(four))
	}
	for name, b := range one {
		if !bytes.Equal(b, four[name]) {
			t.Errorf("%s differs between worker counts", name)
		}
	}
}

// TestTraceSamplingDeterministic pins the -trace-sample contract: the
// sampled subset is a pure function of campaign seed and run key, so it
// is identical across reruns and worker counts, and it is a subset of
// the full trace set.
func TestTraceSamplingDeterministic(t *testing.T) {
	spec := testSpec()
	sampled := func(workers int) []string {
		dir := t.TempDir()
		if _, err := Run(Options{
			Spec: spec, Workers: workers,
			Out:      filepath.Join(dir, "runs.jsonl"),
			TraceDir: filepath.Join(dir, "traces"), TraceSample: "1/2",
		}); err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range readTraceDir(t, filepath.Join(dir, "traces")) {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	one, four := sampled(1), sampled(4)
	total := len(spec.ShardRuns(0, 1))
	if len(one) == 0 || len(one) == total {
		t.Fatalf("1/2 sample traced %d of %d runs; want a strict subset", len(one), total)
	}
	if len(one) != len(four) {
		t.Fatalf("sampled set differs across worker counts: %d vs %d", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("sampled set differs across worker counts: %s vs %s", one[i], four[i])
		}
	}
}

// TestTraceSampled covers the hash sampler's edges and the flag
// parsers.
func TestTraceSampled(t *testing.T) {
	hits := 0
	const n = 1000
	for i := 0; i < n; i++ {
		key := Cell{Solver: SolverGMRES, Precond: PrecondNone, Problem: ProblemPoisson,
			Ranks: 2, Fault: FaultSpec{Model: FaultNone}}.RunKey(i)
		if traceSampled(7, key, 1, 4) != traceSampled(7, key, 1, 4) {
			t.Fatal("traceSampled is not deterministic")
		}
		if traceSampled(7, key, 1, 4) {
			hits++
		}
		if !traceSampled(7, key, 1, 1) || traceSampled(7, key, 0, 4) {
			t.Fatal("k/n edge cases broken")
		}
	}
	// The hash should land reasonably near 1 in 4; a gross miss means
	// the run-key bytes are not actually feeding the hash.
	if hits < n/8 || hits > n/2 {
		t.Errorf("1/4 sampling hit %d of %d keys", hits, n)
	}
	if k, nn, err := parseTraceSample(""); err != nil || k != 1 || nn != 1 {
		t.Errorf("parseTraceSample(\"\") = %d/%d, %v", k, nn, err)
	}
	if k, nn, err := parseTraceSample("3/8"); err != nil || k != 3 || nn != 8 {
		t.Errorf("parseTraceSample(3/8) = %d/%d, %v", k, nn, err)
	}
	for _, bad := range []string{"x", "2/1/3", "-1/4", "5/4", "1/0", "a/b"} {
		if _, _, err := parseTraceSample(bad); err == nil {
			t.Errorf("parseTraceSample(%q) accepted", bad)
		}
	}
	if all, err := parseTraceRanks("all"); err != nil || !all {
		t.Errorf("parseTraceRanks(all) = %v, %v", all, err)
	}
	for _, s := range []string{"", "0"} {
		if all, err := parseTraceRanks(s); err != nil || all {
			t.Errorf("parseTraceRanks(%q) = %v, %v", s, all, err)
		}
	}
	if _, err := parseTraceRanks("2"); err == nil {
		t.Error("parseTraceRanks(2) accepted")
	}
}

// TestTraceSelection: the engine rejects bad trace settings and rank or
// sample settings without a directory, and a selection hands out a
// tracer only for sampled runs, with the rank filter lifted by "all".
func TestTraceSelection(t *testing.T) {
	spec := testSpec()
	for _, bad := range [][3]string{{"", "all", ""}, {"", "", "1/2"}, {"d", "2", ""}, {"d", "", "3/2"}} {
		if _, err := Run(Options{
			Spec: spec, Out: filepath.Join(t.TempDir(), "runs.jsonl"),
			TraceDir: bad[0], TraceRanks: bad[1], TraceSample: bad[2],
		}); err == nil {
			t.Errorf("engine accepted trace dir/ranks/sample %q", bad)
		}
	}
	cell := spec.ShardRuns(0, 1)[0].Cell
	for _, tc := range []struct {
		dir, ranks, sample string
		traced, all        bool
	}{
		{"", "", "", false, false},
		{"d", "", "", true, false},
		{"d", "all", "1/1", true, true},
		{"d", "0", "0/4", false, false},
	} {
		sel, err := NewTraceSelection(tc.dir, tc.ranks, tc.sample)
		if err != nil {
			t.Fatal(err)
		}
		tr := sel.Tracer(&spec, cell, 1)
		if (tr != nil) != tc.traced || (tr != nil && (tr.AllRanks != tc.all || tr.Key() != cell.RunKey(1))) {
			t.Errorf("selection %q/%q/%q gave tracer %+v", tc.dir, tc.ranks, tc.sample, tr)
		}
	}
}
