package main

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/usagecheck"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestRegistryMatchesBenchmarkJSON pins the one source of truth: the
// committed BENCHMARK.json is exactly what -describe json prints, and
// every name and length stays inside the benchmark contract's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := describe(&want, "json"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with `go run ./perf -describe json > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, m := range slices.Concat(e2eMetrics, layerMetrics) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range e2eMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range layerMetrics {
		if m.Layer == "" || m.Source == "" || m.Moves == "" || m.Doc == "" {
			t.Errorf("per-layer metric %s must name its layer, source, what it should move and what it is", m.Name)
		}
	}
	if !hasSetup {
		t.Error("the contract requires an end-to-end setup_s in s, lower is better")
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

func readme(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestReadmeTablesAreGenerated fails when the README's metric tables
// drift from `go run ./perf -describe md`.
func TestReadmeTablesAreGenerated(t *testing.T) {
	text := readme(t)
	_, rest, ok := strings.Cut(text, "<!-- describe:begin")
	if ok {
		_, rest, ok = strings.Cut(rest, "-->\n")
	}
	body, _, ok2 := strings.Cut(rest, "<!-- describe:end -->")
	if !ok || !ok2 {
		t.Fatal("README.md lost its describe:begin / describe:end markers")
	}
	if body != describeMarkdown() {
		t.Error("README.md tables differ from `go run ./perf -describe md`; paste its output between the markers")
	}
}

// TestDocumentedInvocationsParse walks every `perf -flag ...` snippet
// of the README and the package comment through newFlags.
func TestDocumentedInvocationsParse(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *flag.FlagSet { fs, _ := newFlags(); return fs }
	for _, text := range []string{readme(t), string(src)} {
		if len(usagecheck.Snippets(text, "perf")) == 0 {
			t.Error("no perf invocation found to check")
		}
		for _, p := range usagecheck.Verify(text, "perf", mk) {
			t.Error(p)
		}
	}
}

// checkEmitted asserts a run reported exactly the registry's metrics,
// each once with its unit, and no failed op.
func checkEmitted(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, registry has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: emitted %+v (present=%v), want unit %s", d.Name, v, ok, d.Unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload for one pass on the
// end-to-end path and on the traced path. The layer probes do not
// depend on the workload, so they run once (with the first workload)
// and the others reuse their rows; -short traces only the first.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	defer cleanup()
	var probes map[string]float64
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(w.Name, 1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, e2eMetrics)
			for _, m := range e2eMetrics {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if testing.Short() && probes != nil {
				return
			}

			inst, err := setUp(w.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			got := maps.Clone(probes)
			if probes == nil {
				got = map[string]float64{}
				if err := layerProbes(inst, 1, 0, got); err != nil {
					t.Fatal(err)
				}
				probes = maps.Clone(got)
				// benchdiff's own slack for amortised-growth rounding.
				slack := bench.DefaultThresholds().AllocsPerOp
				for _, name := range []string{"obs.disabled_event_allocs", "obs.disabled_span_allocs", "obs.comm_disabled_span_allocs_p4"} {
					if v, ok := got[name]; !ok || v > slack {
						t.Errorf("%s = %g allocs/op (measured=%v): the disabled telemetry path must stay at 0", name, v, ok)
					}
				}
			}
			res, spans, err := tracedWorkload(inst, 0, got)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.finish(layerMetrics, got); err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, layerMetrics)
			if len(spans.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if r := res.Metrics["bench.replica_wall_ratio"].Value; r <= 0 {
				t.Errorf("bench.replica_wall_ratio = %g", r)
			}
		})
	}
}

// TestSeedChangesOrderOnly pins the generator: one seed gives one op
// list, another seed gives the same identities in another order.
func TestSeedChangesOrderOnly(t *testing.T) {
	type gen func(seed uint64) []string
	solveKeys := func(set *solveSet) gen {
		return func(seed uint64) []string {
			s := &solve{set: set, order: stream(seed, "order").Perm(len(set.cells))}
			return s.inputKeys()
		}
	}
	runs := campaign.QuickSpec().ShardRuns(0, 1)
	serveKeys := func(seed uint64) []string {
		s := &serve{runs: runs, list: serveList(seed, len(runs))}
		return s.inputKeys()
	}
	for name, g := range map[string]gen{"solve_wide": solveKeys(wideSet()), "solve_deep": solveKeys(deepSet()), "serve_mix": serveKeys} {
		a, again, b := g(1), g(1), g(2)
		if inputsFNV(a) != inputsFNV(again) {
			t.Errorf("%s: the same seed generated two op lists", name)
		}
		if inputsFNV(a) == inputsFNV(b) {
			t.Errorf("%s: seeds 1 and 2 generated the same op order", name)
		}
		// Which requests stream or repeat is the seed's to pick; the
		// identities are not.
		ids := func(keys []string) []string {
			out := map[string]bool{}
			for _, k := range keys {
				_, id, ok := strings.Cut(k, " ")
				if !ok {
					id = k
				}
				out[id] = true
			}
			return slices.Sorted(maps.Keys(out))
		}
		if !slices.Equal(ids(a), ids(b)) {
			t.Errorf("%s: seeds 1 and 2 generated different identity sets", name)
		}
	}
	list := serveList(3, 936)
	first := map[int]int{}
	counts := [3]int{}
	for pos, r := range list {
		counts[r.class]++
		if r.class != classHit {
			first[r.ref] = pos
		} else if at, ok := first[r.ref]; !ok || pos-at < repeatGap {
			t.Fatalf("repeat of identity %d at %d follows its original (%d, seen=%v) by less than %d", r.ref, pos, at, ok, repeatGap)
		}
	}
	if counts != [3]int{936 - serveStreamed, serveStreamed, serveRepeats} {
		t.Errorf("request mix %v, want %d exec / %d sse / %d hit", counts, 936-serveStreamed, serveStreamed, serveRepeats)
	}
}

// TestCountsRepeatExactly: two set-ups of a solve workload give
// bit-identical simulator counts, whatever the benchmark seed.
func TestCountsRepeatExactly(t *testing.T) {
	defer cleanup()
	sets := []func() *solveSet{wideSet}
	if !testing.Short() {
		sets = append(sets, deepSet)
	}
	for _, mk := range sets {
		var prev map[string]float64
		for seed := uint64(1); seed <= 2; seed++ {
			s, err := newSolve(mk(), seed)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]float64{}
			countMetrics(s.refs(), got)
			if prev != nil && !maps.Equal(prev, got) {
				t.Errorf("%s: counts differ between two set-ups:\n%v\n%v", s.set.name, prev, got)
			}
			prev = got
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}

// TestPerIdentityMedian pins the case the pooled median gets wrong: two
// identities 10 and 50 ms apart, where the pooled median lands on
// whichever cluster the odd sample falls in.
func TestPerIdentityMedian(t *testing.T) {
	passes := [][]float64{{10, 50}, {11, 52}, {9, 51}}
	if got := perIdentityMedian(passes); got != (10+51)/2.0 {
		t.Errorf("perIdentityMedian = %g, want 30.5", got)
	}
	before := runtime.GOMAXPROCS(0)
	restore := pinProcs(1)
	pinned := runtime.GOMAXPROCS(0)
	restore()
	if after := runtime.GOMAXPROCS(0); pinned != 1 || after != before {
		t.Errorf("pinProcs(1): GOMAXPROCS %d -> %d -> %d", before, pinned, after)
	}
}

// TestAgreeVerdicts feeds -agree synthetic result sets: a steady pair,
// a pair steady but 30% slower, and a pair too noisy to call.
func TestAgreeVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS func(seed int) float64, colls float64) string {
		var b bytes.Buffer
		for seed := 1; seed <= 10; seed++ {
			e2e := map[string]value{}
			for _, m := range e2eMetrics {
				e2e[m.Name] = value{Value: 1 + 0.001*float64(seed), Unit: m.Unit}
			}
			e2e["ops_per_s"] = value{Value: opsPerS(seed), Unit: "1/s"}
			b.Write(mustJSON(runRecord{Workload: "solve_wide", Seed: uint64(seed), Result: result{Correct: true, Attempted: 1, Metrics: e2e}}))
			b.WriteByte('\n')
		}
		b.Write(mustJSON(runRecord{Workload: "solve_wide", Seed: 1, Trace: 1, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]value{"comm.colls_per_run": {Value: colls, Unit: "count"}}}}))
		b.WriteByte('\n')
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := func(seed int) float64 { return 100 + 0.1*float64(seed) }
	base := write("a.jsonl", steady, 600)
	for _, tc := range []struct {
		name, verdict string
		code          int
		ops           func(seed int) float64
		colls         float64
	}{
		{"same", "ok", 0, steady, 600},
		{"slower", "regressed", 1, func(seed int) float64 { return 0.7 * steady(seed) }, 600},
		{"noisy", "unresolved", 0, func(seed int) float64 { return 100 + 20*float64(seed%5-2) }, 600},
		{"count", "count differs", 1, steady, 601},
	} {
		var out bytes.Buffer
		code, err := agree(&out, base, write(tc.name+".jsonl", tc.ops, tc.colls))
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}

// TestWatchdogExitsNamingIdentity runs a livelocked op under the
// watchdog in a child process: it must exit 3, name the identity and
// leave no scratch directory behind.
func TestWatchdogExitsNamingIdentity(t *testing.T) {
	if os.Getenv("PERF_WATCHDOG_CHILD") == "1" {
		if _, err := subDir("hang-*"); err != nil {
			os.Exit(1)
		}
		guarded("fgmres/none/poisson/p2/bitflip@0.001/r109", 50*time.Millisecond, func() { select {} })
		os.Exit(0)
	}
	tmp := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdogExitsNamingIdentity$")
	cmd.Env = append(os.Environ(), "PERF_WATCHDOG_CHILD=1", "TMPDIR="+tmp)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("child: %v, want exit status 3\n%s", err, out)
	}
	if !strings.Contains(string(out), "fgmres/none/poisson/p2/bitflip@0.001/r109") {
		t.Errorf("watchdog did not name the identity:\n%s", out)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "perf-*")); len(left) != 0 {
		t.Errorf("watchdog left %v behind", left)
	}
}
