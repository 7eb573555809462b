// Command perf is the repository's performance ledger: four end-to-end
// workloads measured in host time, the per-layer numbers underneath
// them, and a traced run that attributes a solve's wall-clock to the
// layers from outside. BENCHMARK.json (generated by -describe json)
// names every workload and metric; perf/README.md says why each
// exists.
//
//	go run ./perf -workload solve_wide
//	go run ./perf -workload solve_wide -trace 1 -out spans.jsonl
//	go run ./perf -all -seeds 10 -out A.jsonl
//	go run ./perf -agree A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	all      bool
	seeds    int
	describe string
	agree    bool
}

// newFlags builds perf's flag set; the README's command snippets are
// parsed against it by a test.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: campaign_sweep, solve_wide, solve_deep or serve_mix")
	fs.Uint64Var(&o.seed, "seed", 1, "benchmark seed: shuffles op order and picks repeats and streamed requests, never the set of identities")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "how long the timed window lasts; whole passes run until it has elapsed (0 = one pass)")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, span recorder off; 1 = per-layer metrics from the traced run")
	fs.StringVar(&o.out, "out", "", "with -trace 1, write the recorded spans here as JSONL; with -all, append one result line per run here")
	fs.BoolVar(&o.all, "all", false, "run every workload, each in its own process, for seeds 1..-seeds")
	fs.IntVar(&o.seeds, "seeds", 1, "with -all, how many seeds to run each workload with")
	fs.StringVar(&o.describe, "describe", "", "print the registry and exit: md (README tables) or json (BENCHMARK.json)")
	fs.BoolVar(&o.agree, "agree", false, "compare two -all result files against BENCHMARK.json's bounds: perf -agree A.jsonl B.jsonl")
	return fs, o
}

func main() {
	fs, o := newFlags()
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	code, err := run(o, fs.Args())
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		code = 1
	}
	os.Exit(code)
}

func run(o *options, args []string) (int, error) {
	switch {
	case o.describe != "":
		return 0, describe(os.Stdout, o.describe)
	case o.agree:
		if len(args) != 2 {
			return 2, fmt.Errorf("-agree takes two result files")
		}
		return agree(os.Stdout, args[0], args[1])
	case o.all:
		return 0, runAll(o)
	}
	if _, ok := findWorkload(o.workload); !ok {
		return 2, fmt.Errorf("-workload %q is not one of the four workloads (see -describe md)", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return 2, fmt.Errorf("-trace takes 0 or 1")
	}
	res, err := runWorkload(o)
	if err != nil {
		return 1, err
	}
	printResult(o, res)
	return 0, nil
}

// runWorkload runs one workload in this process.
func runWorkload(o *options) (*result, error) {
	if o.trace == 0 {
		return runEndToEnd(o.workload, o.seed, o.seconds, setupReps)
	}
	res, spans, err := runTraced(o.workload, o.seed, o.seconds)
	if err == nil && o.out != "" {
		err = spans.writeJSONL(o.out)
	}
	return res, err
}

// printResult prints every metric by name with its unit, then the one
// JSON object the driver reads from the last line.
func printResult(o *options, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %d: %d ops attempted, %d failed\n", o.workload, o.seed, o.trace, res.Attempted, res.Failed)
	fmt.Printf("  %-34s %#14x\n", "gen.inputs_fnv", res.inputsFNV)
	for _, name := range names {
		fmt.Printf("  %-34s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}
