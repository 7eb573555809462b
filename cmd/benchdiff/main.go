// Command benchdiff is the perf harness, regression gate and table
// printer of this reproduction. It has three modes:
//
//	benchdiff run -label nightly -out BENCH_nightly.json
//	    runs every registered experiment once at seed 1 (concurrently,
//	    one isolated simulated world set per experiment) plus the kernel
//	    micro-benchmarks, and writes a canonical BENCH_<label>.json with
//	    wall-clock, allocs/op, virtual-time and comm/flop metrics.
//	    -exp narrows the experiments, -exps-only skips the kernels. To
//	    time the kernels at another benchtime, run
//	    `go test -bench BenchmarkKernels -benchtime 2s -benchmem .` at the
//	    repository root: it runs the same kernel bodies.
//
//	benchdiff compare BENCH_baseline.json BENCH_new.json
//	    exits non-zero if the new report regresses the baseline beyond
//	    the per-metric thresholds: kernel ns/op (-ns, +25% default),
//	    kernel allocs/op (any growth, fixed), experiment virtual time
//	    (-vt, +10% default, fully deterministic).
//
//	benchdiff tables -exp F1,F6,T4
//	    prints the experiment tables themselves: each experiment
//	    instantiates one claim of Heroux, "Toward Resilient Algorithms
//	    and Applications" (HPDC 2013); the registry is documented in
//	    docs/BENCHMARKING.md. -exp takes a comma-separated list, 'fast'
//	    (the default: everything except the scaling sweeps, and the
//	    set that completes) or 'all' (does not finish on an 8 GB box:
//	    T2's full-scale sweep is OOM-killed, see ROADMAP item 17
//	    step 4); `benchdiff tables -list` shows the index.
//
// Quick mode (-quick) trims the scaling sweeps to their smallest scales
// and shortens kernel timing; CI runs it on every push against the
// committed BENCH_baseline.json. Refresh the baseline with:
//
//	go run ./cmd/benchdiff run -quick -label baseline -out BENCH_baseline.json
//
// Every mode's flags come from one constructor (newRunFlags,
// newCompareFlags, newTablesFlags), and a test pins every documented
// invocation in this comment, the README, docs/BENCHMARKING.md and the
// CI workflow against them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "compare":
		compareCmd(os.Args[2:])
	case "tables":
		tablesCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff run [-label L] [-out FILE] [-quick] [-exp F1,F2] [-exps-only] [-q]
  benchdiff compare [-ns F] [-vt F] BASELINE.json CURRENT.json
  benchdiff tables [-exp F1,F2|fast|all] [-seed S] [-list]`)
}

// parse parses a mode's flags, exiting the way flag.ExitOnError does:
// 0 after -h, 2 on a bad flag.
func parse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(2)
	}
}

// fail reports err and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

// runOptions carries every flag of the run mode.
type runOptions struct {
	label, out, exps   string
	quick, expsOnly, q bool
}

func newRunFlags() (*flag.FlagSet, *runOptions) {
	o := &runOptions{}
	fs := flag.NewFlagSet("benchdiff run", flag.ContinueOnError)
	fs.StringVar(&o.label, "label", "dev", "report label")
	fs.StringVar(&o.out, "out", "", "output path (default BENCH_<label>.json)")
	fs.BoolVar(&o.quick, "quick", false, "smallest experiment scales, 100ms instead of 1s per kernel")
	fs.StringVar(&o.exps, "exp", "", "comma-separated experiment IDs (default all)")
	fs.BoolVar(&o.expsOnly, "exps-only", false, "skip kernel micro-benchmarks")
	fs.BoolVar(&o.q, "q", false, "suppress progress output")
	return fs, o
}

func runCmd(args []string) {
	fs, o := newRunFlags()
	parse(fs, args)

	opts := bench.HarnessOptions{Label: o.label, Quick: o.quick, SkipKernels: o.expsOnly}
	if !o.q {
		opts.Progress = os.Stderr
	}
	if o.exps != "" {
		for _, id := range strings.Split(o.exps, ",") {
			opts.Experiments = append(opts.Experiments, strings.TrimSpace(id))
		}
	}

	start := time.Now()
	rep, err := bench.RunHarness(opts)
	if err != nil {
		fail(err)
	}
	path := o.out
	if path == "" {
		path = "BENCH_" + o.label + ".json"
	}
	if err := bench.WriteReport(rep, path); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: %d results in %.1fs (quick=%v, go=%s)\n",
		path, len(rep.Results), time.Since(start).Seconds(), rep.Quick, rep.GoVersion)
}

func newCompareFlags() (*flag.FlagSet, *bench.Thresholds) {
	th := bench.DefaultThresholds()
	fs := flag.NewFlagSet("benchdiff compare", flag.ContinueOnError)
	fs.Float64Var(&th.NsPerOp, "ns", th.NsPerOp, "allowed relative kernel ns/op growth (<0 disables)")
	fs.Float64Var(&th.VirtualTime, "vt", th.VirtualTime, "allowed relative experiment virtual-time growth (<0 disables)")
	return fs, &th
}

func compareCmd(args []string) {
	fs, th := newCompareFlags()
	parse(fs, args)
	if fs.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	base, err := bench.ReadReport(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	cur, err := bench.ReadReport(fs.Arg(1))
	if err != nil {
		fail(err)
	}
	regs, err := bench.Compare(base, cur, *th)
	if err != nil {
		fail(err)
	}
	bench.RenderComparison(os.Stdout, base, cur, regs)
	if len(regs) > 0 {
		os.Exit(1)
	}
}

// tablesOptions carries every flag of the tables mode.
type tablesOptions struct {
	exp  string
	seed uint64
	list bool
}

func newTablesFlags() (*flag.FlagSet, *tablesOptions) {
	o := &tablesOptions{}
	fs := flag.NewFlagSet("benchdiff tables", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "fast", "experiment ID(s): comma-separated, 'all', or 'fast'")
	fs.Uint64Var(&o.seed, "seed", 1, "master seed for fault injection and noise")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	return fs, o
}

func tablesCmd(args []string) {
	fs, o := newTablesFlags()
	parse(fs, args)

	if o.list {
		for _, e := range bench.Experiments() {
			slow := ""
			if e.Slow {
				slow = " (slow)"
			}
			fmt.Printf("  %s%s\n", e.ID, slow)
		}
		return
	}
	for _, id := range selectIDs(o.exp) {
		table, err := bench.RunMetered(id, bench.RunCtx{Seed: o.seed})
		if err != nil {
			fail(err)
		}
		table.Render(os.Stdout)
	}
}

// selectIDs resolves the -exp value to experiment IDs: "all", "fast"
// (everything not marked Slow), or a comma-separated list.
func selectIDs(exp string) []string {
	var ids []string
	if exp != "all" && exp != "fast" {
		for _, id := range strings.Split(exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		return ids
	}
	for _, e := range bench.Experiments() {
		if exp == "all" || !e.Slow {
			ids = append(ids, e.ID)
		}
	}
	return ids
}
