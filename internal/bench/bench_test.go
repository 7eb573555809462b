package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestFastExperimentsProduceTables runs every non-slow experiment once
// and sanity-checks its output structure.
func TestFastExperimentsProduceTables(t *testing.T) {
	for _, e := range Experiments() {
		if e.Slow {
			continue
		}
		id := e.ID
		table, err := RunMetered(id, RunCtx{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if table.ID != id {
			t.Errorf("%s: table carries ID %q", id, table.ID)
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		if table.Claim == "" || table.Title == "" {
			t.Errorf("%s: missing provenance", id)
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Errorf("%s: row width %d vs %d columns", id, len(row), len(table.Columns))
			}
			for _, cell := range row {
				if strings.Contains(cell, "ERR") {
					t.Errorf("%s: error cell %q", id, cell)
				}
			}
		}
	}
}

// TestF1SkepticalBeatsUnchecked asserts the headline F1 shape: for the
// exponent class the skeptical variant needs no more iterations than the
// unchecked one, with high detection.
func TestF1SkepticalBeatsUnchecked(t *testing.T) {
	table := F1(RunCtx{Seed: 1})
	var uncheckedIters, skepticalIters float64
	var detected string
	for _, row := range table.Rows {
		if row[0] != "exponent" {
			continue
		}
		var v float64
		if _, err := sscan(row[3], &v); err != nil {
			t.Fatalf("bad mean iters %q", row[3])
		}
		if row[1] == "unchecked" {
			uncheckedIters = v
		} else {
			skepticalIters = v
			detected = row[6]
		}
	}
	if skepticalIters >= uncheckedIters {
		t.Errorf("skeptical (%g) should need fewer iterations than unchecked (%g)", skepticalIters, uncheckedIters)
	}
	if detected != "100%" {
		t.Errorf("exponent-class detection = %s, want 100%%", detected)
	}
}

// TestF6FTGMRESShape asserts FT-GMRES converges at every swept rate while
// plain GMRES fails at the highest.
func TestF6FTGMRESShape(t *testing.T) {
	table := F6(RunCtx{Seed: 1})
	var ftAll = true
	var plainHighest string
	for _, row := range table.Rows {
		if row[1] == "FT-GMRES" && row[2] != "yes" {
			ftAll = false
		}
		if row[1] == "plain GMRES" && row[0] == "0.01" {
			plainHighest = row[2]
		}
	}
	if !ftAll {
		t.Error("FT-GMRES failed at some rate")
	}
	if plainHighest != "no" {
		t.Errorf("plain GMRES at rate 1e-2 should fail, got %q", plainHighest)
	}
}

// TestF5LFLRWins asserts LFLR efficiency dominates CPR at every scale.
func TestF5LFLRWins(t *testing.T) {
	table := F5(RunCtx{Seed: 1})
	for _, row := range table.Rows {
		cprEff := strings.TrimSuffix(row[2], "%")
		lflrEff := strings.TrimSuffix(row[3], "%")
		var c, l float64
		if _, err := sscan(cprEff, &c); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(lflrEff, &l); err != nil {
			t.Fatal(err)
		}
		if l < c {
			t.Errorf("P=%s: LFLR efficiency %g%% below CPR %g%%", row[0], l, c)
		}
	}
}

// TestRegistryAndRender pins the index's display order — figures,
// tables, ablations, preconditioning, then campaigns, numerically
// within each group — which `benchdiff tables` and the harness follow.
func TestRegistryAndRender(t *testing.T) {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	want := []string{
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10",
		"T1", "T2", "T3", "T4", "A1", "A2", "P1", "P2", "P3", "P4", "C1",
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("index order\n got %v\nwant %v", ids, want)
	}
	if _, err := RunMetered("nope", RunCtx{Seed: 1}); err == nil {
		t.Error("unknown ID should error")
	}
	table := T4(RunCtx{Seed: 1})
	var buf bytes.Buffer
	table.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T4") || !strings.Contains(out, "claim:") {
		t.Errorf("render missing header: %s", out)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
