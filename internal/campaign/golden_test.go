package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// deepGolden holds the records of deepCells as an earlier build wrote
// them. Unlike perf's solve_* references and CAMPAIGN_baseline.json's
// grid-12 cells it pins grid-96 arithmetic — long rows of dots, axpys
// and sparse rows — across versions: a kernel change that moves one bit
// of one residual moves a record. To re-record on purpose (the
// arithmetic was meant to change), delete the file and run the test
// once without -short; it writes the file and fails.
const deepGolden = "testdata/deep_records.golden.jsonl"

// deepSpec and deepCells are perf's solve_deep identities (perf/solve.go
// deepSet): two ranks × 4608 rows, every solver family the campaign
// runs and every preconditioner, clean and under bitflip@1e-4. Cell
// indices feed RunSeed and are part of each identity.
func deepSpec() Spec {
	return Spec{
		Name: "perf-deep", Seed: 7,
		Solvers: []string{SolverGMRES}, Preconds: []string{PrecondNone},
		Problems: []string{ProblemPoisson}, Ranks: []int{2},
		Faults: []FaultSpec{{Model: FaultNone}}, Replicates: 1,
		Grid: 96, Tol: 1e-8, MaxIter: 1000, MaxRestarts: 3,
	}
}

func deepCells() []Cell {
	none := FaultSpec{Model: FaultNone}
	flip := FaultSpec{Model: FaultBitflip, Rate: 1e-4}
	cell := func(index int, solver, prec, problem string, f FaultSpec) Cell {
		return Cell{Index: index, Solver: solver, Precond: prec, Problem: problem, Ranks: 2, Fault: f}
	}
	return []Cell{
		// The first three are the -short subset: one cell per kernel
		// the solvers share (Chebyshev's fused step, the ILU sweeps
		// under MGS, FT-GMRES's two nested Arnoldi loops under faults).
		cell(0, SolverPCG, PrecondChebyshev, ProblemPoisson, none),
		cell(2, SolverGMRES, PrecondBJILU, ProblemPoisson, none),
		cell(6, SolverFTGMRES, PrecondBJILU, ProblemPoisson, flip),
		cell(1, SolverPCG, PrecondJacobi, ProblemAniso, none),
		cell(3, SolverFGMRES, PrecondChebyshev, ProblemAniso, none),
		cell(4, SolverFTGMRES, PrecondBJILU, ProblemPoisson, none),
		cell(5, SolverFTGMRES, PrecondNone, ProblemPoisson, flip),
		cell(7, SolverFGMRES, PrecondBJILU, ProblemPoisson, flip),
		cell(11, SolverGMRES, PrecondChebyshev, ProblemAniso, flip),
	}
}

// TestDeepRecordsGolden executes the deep cells and compares each
// record's JSON line with the committed one.
func TestDeepRecordsGolden(t *testing.T) {
	spec, cells := deepSpec(), deepCells()
	var memo ProblemMemo
	env := &ExecEnv{Problems: memo.Problem}
	if testing.Short() {
		cells = cells[:3]
	}
	var got [][]byte
	for _, c := range cells {
		line, err := json.Marshal(ExecuteRunEnv(&spec, c, 0, env))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, line)
	}

	data, err := os.ReadFile(deepGolden)
	if os.IsNotExist(err) && !testing.Short() {
		if err := os.MkdirAll(filepath.Dir(deepGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deepGolden, append(bytes.Join(got, []byte("\n")), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this build; review and commit it", deepGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(want) != len(deepCells()) {
		t.Fatalf("%s holds %d records, want %d", deepGolden, len(want), len(deepCells()))
	}
	for i, line := range got {
		if !bytes.Equal(line, want[i]) {
			t.Errorf("%s: record differs from the committed one\n got %s\nwant %s", cells[i].Key(), line, want[i])
		}
	}
}

// TestQuickAggregateBytes: the quick campaign aggregated under the
// committed label reproduces CAMPAIGN_baseline.json byte for byte. The
// claim gate (cmd/campaign's compare test) tolerates a moved quantile;
// this does not.
func TestQuickAggregateBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("936 runs; TestCompareAgainstCommittedBaseline covers the quick spec under -short")
	}
	spec := QuickSpec()
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs.jsonl")
	if _, err := Run(Options{Spec: spec, Out: runs, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	agg, err := AggregateFiles(spec, "baseline", runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "CAMPAIGN_baseline.json")
	if err := WriteAggregate(agg, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../CAMPAIGN_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("quick aggregate (%d bytes) differs from the committed CAMPAIGN_baseline.json (%d bytes): "+
			"`campaign -spec quick -label baseline` and diff the two", len(got), len(want))
	}
}
