package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpec feeds arbitrary bytes to the campaign spec decoder and
// validator — what LoadSpec does with a client's spec file. For every
// spec Validate accepts whose axes are small enough to expand here,
// expansion must terminate without a panic, yield at most the product
// of the axis lengths, number its cells densely, and give every run a
// key of its own: a repeated key is a run that executes but can never
// aggregate.
func FuzzSpec(f *testing.F) {
	for _, s := range []Spec{QuickSpec(), FullSpec()} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"dup","solvers":["gmres","gmres"],"preconds":["none"],"problems":["poisson"],"ranks":[2,2],` +
		`"faults":[{"model":"none"}],"replicates":2,"grid":8,"tol":1e-8,"max_iter":10}`))
	f.Add([]byte(`{"name":"n","solvers":["cg"],"preconds":["none"],"problems":["heat"],"ranks":[1],` +
		`"faults":[{"model":"bitflip","rate":0.5},{"model":"bitflip","rate":0.5,"mtbf":3}],` +
		`"noises":[{},{"model":"none"}],"replicates":1,"grid":4,"tol":1,"max_iter":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	const maxCells = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		bound := 1
		for _, n := range []int{len(s.Solvers), len(s.Preconds), len(s.Problems), len(s.Ranks), len(s.Faults), len(s.noiseAxis())} {
			if bound *= n; bound > maxCells {
				return
			}
		}
		cells := s.Cells()
		if len(cells) > bound {
			t.Fatalf("%d cells from axes whose product is %d", len(cells), bound)
		}
		seen := make(map[string]bool, len(cells))
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d carries index %d", i, c.Index)
			}
			for rep := 0; rep < min(s.Replicates, 3); rep++ {
				k := c.RunKey(rep)
				if seen[k] {
					t.Fatalf("run key %s appears twice in an accepted spec", k)
				}
				seen[k] = true
			}
		}
	})
}

// FuzzShardRecords feeds arbitrary bytes to the shard reader every
// aggregation, resume and merge goes through. It must never panic, it
// must account for every non-blank line as a record, a bad line or a
// foreign one, and every record it accepts must survive the round trip
// a resumed campaign makes: written back through Writer and read again,
// it is the same record.
func FuzzShardRecords(f *testing.F) {
	rec := Record{Schema: RunSchema, Key: "gmres/none/poisson/p2/none/r0", Seed: 7, Solver: "gmres",
		Precond: "none", Problem: "poisson", Ranks: 2, Fault: "none", Noise: "uniform@0.2",
		Converged: true, Iters: 12, VTime: 1.25e-3, Relres: 3.5e-9}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	failed := rec
	failed.Converged, failed.Relres, failed.Err, failed.Transient, failed.Restarts, failed.Discards = false, -1, "comm: rank 1 failed", true, 2, 3
	failedLine, err := json.Marshal(failed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(line, '\n'), failedLine...))
	f.Add(append(append([]byte("\n  \n"), line...), "\n"+`{"schema":"repro-bench/v1","key":"x"}`+"\nnot json\n"+`{"schema":"repro-campaign/v1","key":"torn`...))
	f.Add([]byte("null\n[]\ntrue\n{}\r\n\t\n"))
	f.Add([]byte(`{"schema":"repro-campaign/v1","key":"k","vtime":-0,"relres":1e308,"solver":"` + "\xff\u2028<>" + `"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, bad, foreign, _ := parseRecords(data)
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		if got := bad + foreign + len(recs); got != lines {
			t.Fatalf("%d bad + %d foreign + %d records from %d non-blank lines", bad, foreign, len(recs), lines)
		}
		if len(recs) == 0 {
			return
		}
		path := filepath.Join(t.TempDir(), "shard.jsonl")
		w, err := NewWriter(path, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatalf("an accepted record does not encode: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("records changed on the round trip:\n%+v\n%+v", recs, again)
		}
	})
}

// FuzzTraceSample feeds arbitrary strings to the -trace-sample parser:
// it must never panic, every pair it accepts must be a sample traceSampled
// can draw (0 <= k <= n, n >= 1), and the pair written back as "k/n" must
// parse to itself.
func FuzzTraceSample(f *testing.F) {
	for _, s := range []string{"", "1/1", "1/2", "0/5", "3/2", "-1/4", "1/0", "+2/007", "1/", "/", "x/y", "1/2/3", " 1/2", "99999999999999999999/1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, n, err := parseTraceSample(s)
		if err != nil {
			return
		}
		if k < 0 || k > n || n < 1 {
			t.Fatalf("%q accepted as k=%d n=%d", s, k, n)
		}
		again := fmt.Sprintf("%d/%d", k, n)
		k2, n2, err := parseTraceSample(again)
		if err != nil || k2 != k || n2 != n {
			t.Fatalf("%q → %d/%d re-parses as %d/%d (%v)", s, k, n, k2, n2, err)
		}
	})
}

// FuzzReadAggregate feeds arbitrary bytes to the aggregate reader that
// campaign compare, campaign report and the perf harness load
// CAMPAIGN_*.json files through. It must never panic; an aggregate it
// accepts has the aggregate schema, re-encodes to bytes it accepts
// again unchanged, renders a report, and compared with itself matches
// every cell (where cell keys are unique) with nothing added or
// removed.
func FuzzReadAggregate(f *testing.F) {
	// A few of the committed baseline's cells: a real aggregate, small
	// enough for the mutator to work on.
	if b, err := os.ReadFile(filepath.Join("..", "..", "CAMPAIGN_baseline.json")); err == nil {
		var agg Aggregate
		if err := json.Unmarshal(b, &agg); err != nil {
			f.Fatal(err)
		}
		agg.Cells = agg.Cells[:min(len(agg.Cells), 4)]
		if b, err = json.Marshal(&agg); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"schema":"` + AggSchema + `","label":"x","spec":{},"runs":1,"successes":1,` +
		`"cells":[{"key":"a","success_rate":1,"expected_tts":{"mean":1,"ci_lo":2,"ci_hi":1}},{"key":"a"}]}`))
	f.Add([]byte(`{"schema":"` + AggSchema + `","cells":null}`))
	f.Add([]byte(`{"schema":"other"}`))
	f.Add([]byte(" \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, err := parseAggregate(data)
		if err != nil {
			return
		}
		if agg.Schema != AggSchema {
			t.Fatalf("accepted schema %q", agg.Schema)
		}
		enc, err := json.Marshal(agg)
		if err != nil {
			t.Fatalf("accepted aggregate does not re-encode: %v", err)
		}
		again, err := parseAggregate(enc)
		if err != nil {
			t.Fatalf("re-encoded aggregate refused: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip moved bytes:\n%s\n%s", enc, enc2)
		}
		BuildReport(agg)
		cmp := Compare(agg, agg, DefaultCompareThresholds())
		cmp.Render(io.Discard)
		keys := make(map[string]bool, len(agg.Cells))
		for _, c := range agg.Cells {
			keys[c.Key] = true
		}
		if len(keys) == len(agg.Cells) && (len(cmp.Cells) != len(agg.Cells) || len(cmp.Added) > 0 || len(cmp.Removed) > 0) {
			t.Fatalf("self-comparison of %d cells matched %d, added %v, removed %v", len(agg.Cells), len(cmp.Cells), cmp.Added, cmp.Removed)
		}
	})
}
