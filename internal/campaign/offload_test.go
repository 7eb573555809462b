package campaign

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

// deepRankKillSpec is the committed grid-96 spec CI's rank-kill
// determinism job also runs: GMRES, FGMRES, PCG and pipelined PCG
// under each of none, bj-ilu and chebyshev they take, clean and under
// rank kills, on two ranks (slabs past comm.OffloadRows, whose kernels
// go through Offload) and on four. It holds the two-rank kill cells
// whose survivors, yielding at their kernels, see the failure one
// receive later than before Offload (pipelined-pcg/none and
// gmres/chebyshev).
const deepRankKillSpec = "testdata/deep_rankkill.json"

// offloadRun is everything one run can tell about how it went.
type offloadRun struct {
	record []byte
	ledger comm.LedgerSnapshot
	trace  []byte
}

// runObserved executes one run with every rank's events traced and a
// ledger attached.
func runObserved(t *testing.T, spec *Spec, cell Cell) offloadRun {
	t.Helper()
	tr := newRunTracer(spec, cell, 0)
	tr.AllRanks = true
	var led comm.Ledger
	rec := ExecuteRunEnv(spec, cell, 0, &ExecEnv{Ledger: &led, Events: tr.Observe})
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return offloadRun{record: line, ledger: led.Snapshot(), trace: b.Bytes()}
}

// TestOffloadLeavesNoTrace: the fat-rank cells — perf's solve_deep
// identities and the grid-96 rank-kill cells at P = 2 and 4 — give
// byte-identical records, ledgers and all-rank event streams whether
// their kernels run on the driving thread alone (GOMAXPROCS 1) or
// partly on the helper thread (GOMAXPROCS 2), and once more. Which thread
// runs a kernel is the host's business; the interleaving of ranks, and
// so which operation a survivor of a kill fails in, is the program's.
func TestOffloadLeavesNoTrace(t *testing.T) {
	rk, err := LoadSpec(deepRankKillSpec)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		spec *Spec
		cell Cell
	}
	deep := deepSpec()
	var jobs []job
	for _, c := range deepCells() {
		jobs = append(jobs, job{&deep, c})
	}
	for _, c := range rk.Cells() {
		if c.Fault.Model == FaultRankKill {
			jobs = append(jobs, job{&rk, c})
		}
	}
	if testing.Short() {
		// Eight iterations each of pcg/chebyshev (Chebyshev's opening
		// pass and step, PCG's dots and vector updates), pcg/jacobi
		// (the Jacobi scaling), gmres/bj-ilu
		// (the product, the ILU sweeps, mgs's fused passes),
		// ftgmres/none under bit flips (mgs's opening dot and the
		// basis scaling, in two nested Arnoldi loops) and the first kill
		// cell, a two-rank GMRES restart: every offload site, in few
		// enough iterations for the race detector's -count=10.
		deep.MaxIter, rk.MaxIter = 8, 8
		jobs = []job{jobs[0], jobs[1], jobs[3], jobs[6], jobs[len(deepCells())]}
	}
	for _, j := range jobs {
		var runs [3]offloadRun
		for i, procs := range []int{1, 2, 2} {
			prev := runtime.GOMAXPROCS(procs)
			runs[i] = runObserved(t, j.spec, j.cell)
			runtime.GOMAXPROCS(prev)
		}
		for i := 1; i < len(runs); i++ {
			a, b := runs[0], runs[i]
			if !bytes.Equal(a.record, b.record) {
				t.Errorf("%s: run %d's record differs from the one-P run's:\n got %s\nwant %s", j.cell.Key(), i, b.record, a.record)
			}
			if a.ledger != b.ledger {
				t.Errorf("%s: run %d's ledger differs from the one-P run's: %+v vs %+v", j.cell.Key(), i, b.ledger, a.ledger)
			}
			if !bytes.Equal(a.trace, b.trace) {
				t.Errorf("%s: run %d's all-rank trace differs from the one-P run's", j.cell.Key(), i)
			}
		}
		if n := bytes.Count(runs[0].trace, []byte(`"name":"`+obs.EventSpan+`"`)); n == 0 {
			t.Errorf("%s: the trace holds no spans", j.cell.Key())
		}
	}
}
