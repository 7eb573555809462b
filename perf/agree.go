package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// runRecord is one line of an -all result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runAll runs every workload for seeds 1..-seeds, re-executing this
// binary once per run so each workload's peak_rss_mb is its own, and
// appends one runRecord line per run to -out (standard output if
// unset).
func runAll(o *options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if o.out != "" {
		f, err := os.OpenFile(o.out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	for seed := uint64(1); seed <= uint64(o.seeds); seed++ {
		for _, w := range workloadDefs {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			rec := runRecord{Workload: w.Name, Seed: seed, Trace: o.trace}
			if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w.Name, seed, err)
			}
			fmt.Fprintf(os.Stderr, "perf: %s seed %d trace %d: correct=%v attempted=%d failed=%d\n",
				w.Name, seed, o.trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
			if _, err := fmt.Fprintf(out, "%s\n", mustJSON(rec)); err != nil {
				return err
			}
		}
	}
	return nil
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles are Python's statistics.quantiles(values, n=4), the rule
// the acceptance driver computes spreads with.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// values collects one metric of one workload from a result set.
func values(runs []runRecord, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// agree compares two result sets of one commit (or of a parent A and a
// change B) per workload and end-to-end metric against the registry's
// bounds, and the traced runs' count metrics for exact equality. It
// returns exit code 1 when anything regressed or a count differs.
func agree(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return 1, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return 1, err
	}
	code := 0
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		if !r.Result.Correct {
			fmt.Fprintf(w, "%-15s seed %d trace %d  FAILED OPS: %d of %d\n", r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
			code = 1
		}
	}
	fmt.Fprintf(w, "%-15s %-12s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, m := range e2eMetrics {
			va, vb := values(a, wl.Name, 0, m.Name), values(b, wl.Name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			worse := (mb - ma) / ma
			allBetter := slices.Max(vb) < slices.Min(va)
			if m.Better == "higher" {
				worse = -worse
				allBetter = slices.Min(vb) > slices.Max(va)
			}
			spread := max((q3a-q1a)/ma, (q3b-q1b)/mb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case spread > m.Bound && m.Name != "setup_s" && !allBetter:
				// The driver holds setup_s to its bound on medians only.
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-12s %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, worse*100, spread*100, m.Bound*100, verdict)
		}
		for _, m := range layerMetrics {
			if m.Source != "count" {
				continue
			}
			all := append(values(a, wl.Name, 1, m.Name), values(b, wl.Name, 1, m.Name)...)
			for _, v := range all {
				if v != all[0] {
					fmt.Fprintf(w, "%-15s %-28s count differs between runs: %v\n", wl.Name, m.Name, all)
					code = 1
					break
				}
			}
		}
	}
	return code, nil
}
