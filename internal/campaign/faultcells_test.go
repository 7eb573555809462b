package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// faultCellsGolden pins every fault wiring the campaign has — the
// faulty-precond model on each preconditioner it can corrupt, and the
// rank-kill and bitflip models under every solver — as data: each line
// is one run's record plus an FNV-64a hash of the fault events it
// traced. It was recorded by running this file in a clone of the commit
// before the faults became one plan, and a later build must reproduce
// every line. To re-record after a deliberate change, delete the file
// and run the test: it writes the file and fails.
const faultCellsGolden = "testdata/fault_cells.golden.jsonl"

// faultCellsSpec expands to every compatible (solver, precond) pair on
// poisson at two rank counts under the three fault models.
func faultCellsSpec() Spec {
	return Spec{
		Name: "fault-cells", Seed: 7,
		Solvers:  []string{SolverCG, SolverPCG, SolverPipelinedPCG, SolverGMRES, SolverFGMRES, SolverFTGMRES},
		Preconds: []string{PrecondNone, PrecondJacobi, PrecondBJILU, PrecondChebyshev},
		Problems: []string{ProblemPoisson},
		Ranks:    []int{2, 4},
		Faults: []FaultSpec{
			{Model: FaultBitflip, Rate: 1e-3},
			{Model: FaultRankKill, MTBF: 300},
			{Model: FaultRankKill, MTBF: 30},
			{Model: FaultFaultyPrecond, Rate: 1e-3},
		},
		Replicates: 2, Grid: 12, Tol: 1e-6, MaxIter: 400, MaxRestarts: 3,
	}
}

// faultEventHash folds the fault_inject and rank_kill events of one run
// — rank, virtual time, value and detail — into one FNV-64a hash.
type faultEventHash struct {
	h hash.Hash64
	n int
}

func (f *faultEventHash) observe(ev obs.Event) {
	if ev.Name != "fault_inject" && ev.Name != "rank_kill" {
		return
	}
	f.n++
	var b [8]byte
	for _, v := range []uint64{uint64(int64(ev.Rank)), math.Float64bits(ev.T), math.Float64bits(ev.Value)} {
		binary.LittleEndian.PutUint64(b[:], v)
		f.h.Write(b[:])
	}
	f.h.Write([]byte(ev.Name + "\x00" + ev.Detail + "\x00"))
}

// TestFaultCellsGolden executes every fault cell and compares each
// record and its fault-event hash with the committed line.
func TestFaultCellsGolden(t *testing.T) {
	spec := faultCellsSpec()
	var memo ProblemMemo
	var got [][]byte
	var keys []string
	for _, c := range spec.Cells() {
		for rep := 0; rep < spec.Replicates; rep++ {
			fh := &faultEventHash{h: fnv.New64a()}
			rec := ExecuteRunEnv(&spec, c, rep, &ExecEnv{Problems: memo.Problem, Events: fh.observe})
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, []byte(fmt.Sprintf(`{"events":%d,"hash":"%016x","record":%s}`, fh.n, fh.h.Sum64(), line)))
			keys = append(keys, fmt.Sprintf("%s#%d", c.Key(), rep))
		}
	}

	data, err := os.ReadFile(faultCellsGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(faultCellsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(faultCellsGolden, append(bytes.Join(got, []byte("\n")), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this build; review and commit it", faultCellsGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(want) != len(got) {
		t.Fatalf("%s holds %d lines, want %d", faultCellsGolden, len(want), len(got))
	}
	for i, line := range got {
		if !bytes.Equal(line, want[i]) {
			t.Errorf("%s: differs from the committed line\n got %s\nwant %s", keys[i], line, want[i])
		}
	}
}
