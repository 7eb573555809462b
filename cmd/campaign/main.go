// Command campaign runs a fault-campaign sweep and gates its claims:
// it expands a scenario spec into its solver × preconditioner ×
// problem × ranks × fault-model grid, executes every replicate on a
// worker pool (locally, or with -server as repro-solve/v1 requests to
// a running solverd), streams results to a crash-safe JSONL file,
// folds them into the canonical CAMPAIGN_<label>.json aggregate, and
// — with the compare and report modes — regression-gates an aggregate
// against a committed baseline and renders the paper's cross-cell
// comparisons.
// Run `campaign -h` for the full flag set — a test pins every usage
// snippet in this comment, the README and docs/CAMPAIGNS.md against
// the flags the program actually parses.
//
// Common invocations:
//
//	campaign -spec quick -label dev                                  # run + aggregate
//	campaign -spec quick -label dev -resume                          # finish a killed run
//	campaign -cells -spec quick                                      # list the grid
//	campaign -spec quick -shard 0/2 -runs shard0.jsonl -no-agg       # CI fan-out, half 1
//	campaign -spec quick -shard 1/2 -runs shard1.jsonl -no-agg       # CI fan-out, half 2
//	campaign -server http://localhost:8077 -spec quick -label dev    # run through a solve service
//	campaign -aggregate-only -spec quick -label ci shard0.jsonl shard1.jsonl
//	campaign -spec quick -label dev -trace traces -trace-chrome      # per-run event timelines
//	campaign -spec quick -label dev -trace traces -trace-ranks all   # keep every rank's spans (imbalance / critical path)
//	campaign -spec full -label dev -trace traces -trace-sample 1/8   # trace a deterministic 1-in-8 subset of runs
//	campaign compare CAMPAIGN_baseline.json CAMPAIGN_ci.json         # claim gate (exit 1 on regression)
//	campaign report -csv report.csv CAMPAIGN_ci.json                 # render the paper's comparisons (Markdown to stdout; -md FILE writes it)
//
// The spec is "quick", "full", or a path to a JSON Spec file (see
// docs/CAMPAIGNS.md for the format, the JSONL/aggregate schemas, the
// compare thresholds and the report layout).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/comm"
	"repro/internal/service"
)

// options carries every run-mode flag; newFlags is the single source
// of truth the help text and the usage-snippet test derive from.
type options struct {
	spec    string
	label   string
	seed    uint64
	shard   string
	runs    string
	out     string
	resume  bool
	workers int
	server  string
	cells   bool
	aggOnly bool
	noAgg   bool
	quiet   bool
	trace   string
	chrome  bool
	tranks  string
	tsample string
}

// newFlags builds the run-mode flag set. Keeping construction in one
// function is what lets main_test.go verify that every documented
// invocation parses.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.StringVar(&o.spec, "spec", "quick", "campaign spec: quick, full, or a JSON file path")
	fs.StringVar(&o.label, "label", "dev", "label; names the default output files")
	fs.Uint64Var(&o.seed, "seed", 0, "override the spec's campaign seed (0 keeps it)")
	fs.StringVar(&o.shard, "shard", "0/1", "run only cells with index%n == k, as k/n")
	fs.StringVar(&o.runs, "runs", "", "JSONL run-record path (default campaign_<label>.jsonl)")
	fs.StringVar(&o.out, "out", "", "aggregate output path (default CAMPAIGN_<label>.json)")
	fs.BoolVar(&o.resume, "resume", false, "keep existing records in -runs and execute only missing runs")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size, or concurrent requests with -server (0 = GOMAXPROCS)")
	fs.StringVar(&o.server, "server", "", "execute every run on the solverd at this base URL (e.g. http://localhost:8077) instead of locally; excludes -trace")
	fs.BoolVar(&o.cells, "cells", false, "list the spec's runnable grid cells and exit")
	fs.BoolVar(&o.aggOnly, "aggregate-only", false, "skip running; aggregate the JSONL files given as arguments")
	fs.BoolVar(&o.noAgg, "no-agg", false, "skip aggregation after the run (sharded CI jobs)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-run progress lines")
	fs.StringVar(&o.trace, "trace", "", "write one repro-trace/v1 event timeline per run into this directory")
	fs.BoolVar(&o.chrome, "trace-chrome", false, "with -trace, also write Chrome trace-event files for timeline viewers")
	fs.StringVar(&o.tranks, "trace-ranks", "0", "spans kept per trace: 0 (rank 0 only) or all (every rank, enables imbalance/critical-path analytics)")
	fs.StringVar(&o.tsample, "trace-sample", "1/1", "trace a deterministic k/n sample of runs (seeded by run key; same subset on every rerun)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: campaign [flags] [jsonl files with -aggregate-only]\n")
		fmt.Fprintf(fs.Output(), "       campaign compare [flags] BASELINE.json CURRENT.json\n")
		fmt.Fprintf(fs.Output(), "       campaign report [flags] AGGREGATE.json\n\n")
		fmt.Fprintf(fs.Output(), "Sweeps the solver x precond x problem x ranks x fault grid of a\n")
		fmt.Fprintf(fs.Output(), "scenario spec, streams per-run JSONL records, and aggregates them\n")
		fmt.Fprintf(fs.Output(), "into CAMPAIGN_<label>.json (success rates, quantiles, expected\n")
		fmt.Fprintf(fs.Output(), "time-to-solution with bootstrap CIs). compare gates an aggregate\n")
		fmt.Fprintf(fs.Output(), "against a baseline; report renders the paper's comparisons.\n\n")
		fs.PrintDefaults()
	}
	return fs, o
}

// compareOptions carries the compare-mode flags.
type compareOptions struct {
	rate             float64
	tts              float64
	allowCellChanges bool
}

// newCompareFlags builds the compare flag set (see newFlags).
func newCompareFlags() (*flag.FlagSet, *compareOptions) {
	def := campaign.DefaultCompareThresholds()
	o := &compareOptions{}
	fs := flag.NewFlagSet("campaign compare", flag.ContinueOnError)
	fs.Float64Var(&o.rate, "rate", def.RateDrop, "allowed absolute success-rate drop per cell")
	fs.Float64Var(&o.tts, "tts", def.TTSSlack, "allowed relative upward E[TTS] CI shift before disjoint CIs regress")
	fs.BoolVar(&o.allowCellChanges, "allow-cell-changes", def.AllowCellChanges, "treat cells removed by spec drift as notes, not regressions")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: campaign compare [flags] BASELINE.json CURRENT.json\n\n")
		fmt.Fprintf(fs.Output(), "Gates CURRENT against BASELINE cell by cell; exits 1 when any cell's\n")
		fmt.Fprintf(fs.Output(), "success rate drops beyond -rate, its E[TTS] bootstrap CI shifts\n")
		fmt.Fprintf(fs.Output(), "disjointly up beyond -tts, harness errors appear, or a baseline cell\n")
		fmt.Fprintf(fs.Output(), "vanished from the grid.\n\n")
		fs.PrintDefaults()
	}
	return fs, o
}

// reportOptions carries the report-mode flags.
type reportOptions struct {
	md  string
	csv string
}

// newReportFlags builds the report flag set (see newFlags).
func newReportFlags() (*flag.FlagSet, *reportOptions) {
	o := &reportOptions{}
	fs := flag.NewFlagSet("campaign report", flag.ContinueOnError)
	fs.StringVar(&o.md, "md", "", "write the Markdown report here (default stdout)")
	fs.StringVar(&o.csv, "csv", "", "also write the per-cell CSV table here")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: campaign report [flags] AGGREGATE.json\n\n")
		fmt.Fprintf(fs.Output(), "Renders the paper's cross-cell comparisons (ftgmres vs gmres at equal\n")
		fmt.Fprintf(fs.Output(), "fault rate, E[TTS] vs ranks, noisy vs clean twins) as deterministic\n")
		fmt.Fprintf(fs.Output(), "Markdown, plus the full per-cell distributions as CSV.\n\n")
		fs.PrintDefaults()
	}
	return fs, o
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = runCompare(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "report":
		err = runReport(args[1:], os.Stdout)
	default:
		fs, o := newFlags()
		fs.SetOutput(os.Stderr)
		if err := fs.Parse(args); err != nil {
			if err == flag.ErrHelp {
				os.Exit(0)
			}
			os.Exit(2)
		}
		err = run(fs, o)
	}
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		// Package errors already carry the "campaign: " prefix; don't
		// double it on the way out.
		fmt.Fprintln(os.Stderr, "campaign:", strings.TrimPrefix(err.Error(), "campaign: "))
		os.Exit(1)
	}
}

// runCompare is the compare mode: load both aggregates, gate, render,
// and return a non-nil error on any regression (main exits 1).
func runCompare(args []string, w *os.File) error {
	fs, o := newCompareFlags()
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("compare needs exactly two aggregate files, got %d", fs.NArg())
	}
	base, err := campaign.ReadAggregate(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := campaign.ReadAggregate(fs.Arg(1))
	if err != nil {
		return err
	}
	th := campaign.CompareThresholds{RateDrop: o.rate, TTSSlack: o.tts, AllowCellChanges: o.allowCellChanges}
	cmp := campaign.Compare(base, cur, th)
	cmp.Render(w)
	if !cmp.Ok() {
		return fmt.Errorf("%d claim regression(s) against %s", cmp.Regressions, fs.Arg(0))
	}
	return nil
}

// runReport is the report mode: render one aggregate's claim report.
func runReport(args []string, w *os.File) error {
	fs, o := newReportFlags()
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("report needs exactly one aggregate file, got %d", fs.NArg())
	}
	agg, err := campaign.ReadAggregate(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := campaign.BuildReport(agg)
	if o.md == "" {
		if _, err := w.Write(rep.Markdown); err != nil {
			return err
		}
	} else if err := os.WriteFile(o.md, rep.Markdown, 0o644); err != nil {
		return err
	}
	if o.csv != "" {
		if err := os.WriteFile(o.csv, rep.CSV, 0o644); err != nil {
			return err
		}
	}
	if o.md != "" {
		fmt.Fprintf(w, "report: %d cells -> %s", len(agg.Cells), o.md)
		if o.csv != "" {
			fmt.Fprintf(w, " + %s", o.csv)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func run(fs *flag.FlagSet, o *options) error {
	spec, err := campaign.LoadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.seed != 0 {
		spec.Seed = o.seed
	}

	if o.cells {
		for _, c := range spec.Cells() {
			fmt.Printf("%4d  %s\n", c.Index, c.Key())
		}
		cov := spec.Coverage()
		fmt.Printf("%d cells x %d replicates = %d runs (%d solvers, %d preconds, %d problems, %d fault models)\n",
			cov.Cells, spec.Replicates, cov.Runs, cov.Solvers, cov.Preconds, cov.Problems, cov.Fault)
		return nil
	}

	aggPath := o.out
	if aggPath == "" {
		aggPath = "CAMPAIGN_" + o.label + ".json"
	}
	if o.aggOnly {
		if fs.NArg() == 0 {
			return fmt.Errorf("-aggregate-only needs at least one JSONL file argument")
		}
		agg, err := campaign.AggregateFiles(spec, o.label, fs.Args()...)
		if err != nil {
			return err
		}
		if err := campaign.WriteAggregate(agg, aggPath); err != nil {
			return err
		}
		fmt.Printf("aggregated %d runs (%d successes) over %d cells -> %s\n",
			agg.Runs, agg.Successes, len(agg.Cells), aggPath)
		return nil
	}

	shard, shards, err := campaign.ParseShard(o.shard)
	if err != nil {
		return err
	}
	runsPath := o.runs
	if runsPath == "" {
		runsPath = "campaign_" + o.label + ".jsonl"
	}
	opts := campaign.Options{
		Spec: spec, Shard: shard, Shards: shards, Workers: o.workers,
		Out: runsPath, Resume: o.resume,
		TraceDir: o.trace, TraceChrome: o.chrome,
		TraceRanks: o.tranks, TraceSample: o.tsample,
	}
	// A served run simulates in the server's process, so the local
	// ledger would count nothing: -server reports the server's caches
	// instead.
	var cl *service.Client
	if o.server != "" {
		cl = &service.Client{Base: o.server}
		if err := cl.Healthz(); err != nil {
			return fmt.Errorf("server %s is not healthy: %w", o.server, err)
		}
		opts.Exec = cl.Exec
	} else {
		opts.Ledger = &comm.Ledger{}
	}
	if !o.quiet {
		opts.Progress = os.Stderr
	}
	st, err := campaign.Run(opts)
	if err != nil {
		return err
	}
	fmt.Printf("shard %d/%d: %d cells, %d runs (%d resumed, %d executed, %d errored) -> %s\n",
		shard, shards, st.Cells, st.Planned, st.Resumed, st.Executed, st.Errored, runsPath)
	if cl == nil {
		snap := opts.Ledger.Snapshot()
		fmt.Printf("simulated: %d worlds, %d rank executions, %.3g virtual rank-seconds\n",
			snap.Worlds, snap.Ranks, snap.RankSeconds)
	} else if stats, err := cl.Stats(); err == nil {
		fmt.Printf("server %s: %d completed, setup cache %d hits / %d misses, problem cache %d hits / %d misses\n",
			o.server, stats.Completed, stats.Cache.SetupHits, stats.Cache.SetupMisses,
			stats.Cache.ProblemHits, stats.Cache.ProblemMisses)
	}
	if o.trace != "" {
		fmt.Printf("traced %d runs -> %s\n", st.Traced, o.trace)
	}

	if o.noAgg {
		return nil
	}
	if shards != 1 {
		return fmt.Errorf("a single shard is incomplete; aggregate all shards with -aggregate-only (or pass -no-agg)")
	}
	agg, err := campaign.AggregateFiles(spec, o.label, runsPath)
	if err != nil {
		return err
	}
	if err := campaign.WriteAggregate(agg, aggPath); err != nil {
		return err
	}
	fmt.Printf("aggregated %d runs (%d successes) over %d cells -> %s\n",
		agg.Runs, agg.Successes, len(agg.Cells), aggPath)
	return nil
}
