package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// TestMemoisedEqualsFresh is the first row of the equivalence lattice:
// a quick-spec shard through Run — problems and layouts shared across
// runs and workers — writes the same record bytes and the same all-rank
// trace bytes as executing every run on its own freshly assembled,
// freshly partitioned problem.
func TestMemoisedEqualsFresh(t *testing.T) {
	spec := QuickSpec()
	shard, shards := 1, 4
	if testing.Short() { // the race job: a third of the runs
		shards = 12
	}
	dir := t.TempDir()
	out, traces := filepath.Join(dir, "runs.jsonl"), filepath.Join(dir, "traces")
	if _, err := Run(Options{
		Spec: spec, Shard: shard, Shards: shards, Workers: 4,
		Out: out, TraceDir: traces, TraceRanks: "all",
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	memoised := bytes.SplitAfter(data, []byte("\n"))
	memoised = memoised[:len(memoised)-1] // the empty piece after the last newline
	memoTraces := readTraceDir(t, traces)

	var fresh [][]byte
	for _, ref := range spec.ShardRuns(shard, shards) {
		rec, trace, _ := allRankTraceRun(t, &spec, ref.Cell, ref.Rep)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, append(line, '\n'))
		name := TraceFileName(rec.Key)
		if !bytes.Equal(trace, memoTraces[name]) {
			t.Errorf("%s: trace of the memoised run differs from a fresh one's", name)
		}
		delete(memoTraces, name)
	}
	if len(fresh) < 50 {
		t.Fatalf("shard %d/%d of the quick spec has only %d runs", shard, shards, len(fresh))
	}
	if len(memoTraces) != 0 {
		t.Errorf("%d memoised traces match no run of the shard", len(memoTraces))
	}
	slices.SortFunc(memoised, bytes.Compare)
	slices.SortFunc(fresh, bytes.Compare)
	if !slices.EqualFunc(memoised, fresh, bytes.Equal) {
		t.Errorf("sorted record lines differ: %d memoised, %d fresh", len(memoised), len(fresh))
	}
}

// TestProblemMemoBuildsOnce: concurrent requests for one key share one
// assembly and one layout per rank count; another key, and a Problem
// built outside the memo, share nothing with it.
func TestProblemMemoBuildsOnce(t *testing.T) {
	var memo ProblemMemo
	const callers = 8
	got := make([]Problem, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := memo.Problem(ProblemPoisson, 8)
			if err != nil {
				t.Error(err)
				return
			}
			p.layout(2 + i%2) // first use races with the other callers'
			got[i] = p
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p.A != got[0].A {
			t.Fatalf("caller %d got its own assembly", i)
		}
		for _, ranks := range []int{2, 3} {
			if p.layout(ranks) != got[0].layout(ranks) {
				t.Errorf("caller %d got its own layout over %d ranks", i, ranks)
			}
		}
	}
	if got[0].layout(2) == got[0].layout(3) {
		t.Error("one layout serves two rank counts")
	}
	if hits, misses := memo.Counts(); hits != callers-1 || misses != 1 {
		t.Errorf("%d callers of one key: %d hits, %d misses", callers, hits, misses)
	}

	other, err := memo.Problem(ProblemPoisson, 9)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := BuildProblem(ProblemPoisson, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.A == got[0].A || alone.A == got[0].A || alone.layout(2) == got[0].layout(2) {
		t.Error("distinct problems share an assembly or a layout")
	}
	if _, err := memo.Problem("stokes", 8); err == nil {
		t.Error("unknown problem resolved")
	}
	if hits, misses := memo.Counts(); hits != callers-1 || misses != 3 {
		t.Errorf("after two more keys: %d hits, %d misses", hits, misses)
	}
}
