package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// faultExpGolden pins the rendered rows of every experiment that injects
// faults. The serial ones (F1, T1, F6) open no world, so the -vt 0
// ledger gate cannot see a moved flip; this file can. It was recorded by
// running this file in a clone of the commit before the faults became
// one plan, and a later build must reproduce every line.
const faultExpGolden = "testdata/fault_experiments.golden.txt"

// faultExps are the fault-injecting experiments, run at seed 1 in quick
// mode.
var faultExps = []string{"F1", "T1", "F6", "F4", "T3", "F9", "F10", "P3"}

func TestFaultExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight experiments")
	}
	checkExperimentsGolden(t, faultExpGolden, faultExps, true)
}

// precondExpGolden pins P1, P2 and P4 at full size. BENCH_baseline.json
// holds only their quick ledgers, so nothing else sees a full-size row
// move. It was recorded in a clone of the commit before these tables
// ran on the campaign executor.
const precondExpGolden = "testdata/precond_experiments.golden.txt"

// TestPrecondExperimentsGolden needs no -short skip: the three tables
// take well under a second.
func TestPrecondExperimentsGolden(t *testing.T) {
	checkExperimentsGolden(t, precondExpGolden, []string{"P1", "P2", "P4"}, false)
}

// checkExperimentsGolden runs the experiments at seed 1 and compares
// their rendered rows, one "ID<TAB>cell<TAB>…" line each, with the
// committed file. To re-record after a deliberate change, delete the
// file and run the test: it writes the file and fails.
func checkExperimentsGolden(t *testing.T, file string, ids []string, quick bool) {
	t.Helper()
	var got bytes.Buffer
	for _, id := range ids {
		table, err := RunMetered(id, RunCtx{Seed: 1, Quick: quick})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range table.Rows {
			got.WriteString(id + "\t" + strings.Join(row, "\t") + "\n")
		}
	}

	want, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this build; review and commit it", file)
	}
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d rendered lines, %s holds %d", len(gl), file, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("row differs from the committed one\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
