package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// runSeconds is how long one driver run measures; the contract's
// run_seconds. The e2e window and the traced run's pass count both
// derive from the -seconds flag, whose default is this value.
const runSeconds = 20

// workloadDef names one workload and records why it exists (the one
// line BENCHMARK.json carries) and the longer README rationale.
type workloadDef struct {
	Name string
	Why  string // ≤ 200 chars, goes into BENCHMARK.json
	Op   string // what ops_per_s counts and op_p50_ms times
	// TailQ is the quantile op_tail_ms reports: the highest round one
	// that keeps well over ten samples beyond it in a 20 s window. Tail
	// says what it is a quantile of, with the sample count.
	TailQ float64
	Tail  string
	// Procs, when not 0, is the GOMAXPROCS the workload's process runs
	// on (README "Sizing rules" says why solve_wide runs on one).
	Procs int
	// PerIdentity says a pass times several distinct identities, so
	// op_p50_ms is the mean of the per-identity medians: the pooled
	// median of a few well-separated clusters jumps between two of them.
	PerIdentity bool
}

var workloadDefs = []workloadDef{
	{
		Name:  "campaign_sweep",
		Why:   "0.4 ms runs: world spawn, assembly, JSONL write+strict read, aggregation and report do most of the work, the bookkeeping layers",
		Op:    "ops = campaign runs (936 per pass); the timed unit is one pass spec -> campaign.Run -> AggregateFiles -> BuildReport",
		TailQ: 0.80, Tail: "of pass wall (n ~ 60 passes, >= 10 beyond)",
	},
	{
		Name:  "solve_wide",
		Why:   "64 ranks x 9 rows each on one P: arithmetic is negligible, the goroutine-per-rank comm.World does most of the work (latency-bound krylov)",
		Op:    "ops = ExecuteRunEnv calls over 8 clean cells at grid 24, 64 ranks, GOMAXPROCS 1; the timed unit is one call",
		TailQ: 0.95, Tail: "of run wall (n ~ 700, >= 35 beyond)",
		Procs: 1, PerIdentity: true,
	},
	{
		Name:  "solve_deep",
		Why:   "2 ranks x 4608 rows: SpMV, dot/axpy, ILU/Chebyshev and Arnoldi dominate, comm does little; runs the fault/srp path beside clean cells",
		Op:    "ops = ExecuteRunEnv calls over 9 cells at grid 96, 2 ranks (4 under bitflip@1e-4); the timed unit is one call",
		TailQ: 0.90, Tail: "of run wall (n ~ 260, >= 20 beyond)",
		PerIdentity: true,
	},
	{
		Name:  "serve_mix",
		Why:   "closed-loop HTTP clients over decode, pool, setup cache, world, journal append/snapshot and SSE: 72% executed, 8% streamed, 20% journal hits",
		Op:    "ops = /v1/solve requests (1170 per round against a fresh journaled server); the timed unit is one request",
		TailQ: 0.99, Tail: "of request latency (n ~ 38 k, >= 300 beyond)",
	},
}

// metricDef is one registry row. End-to-end metrics carry a Bound;
// per-layer metrics carry the layer (a package of this repo), how the
// number is obtained, and which end-to-end metric on which workload a
// change to that layer should move — written down before measuring.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Layer  string  // per-layer only
	Source string  // per-layer: kernel | call | replica | spans | scrape | computed | host, or count (repeats exactly)
	Moves  string  // per-layer: the e2e metric and workload it should move
	Doc    string
}

// The five end-to-end metrics. Every workload reports every one (the
// driver requires it), so the names are generic and workloadDefs says
// what an "op" is per workload. All are host time, never virtual time.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: fmt.Sprintf("median of %d set-ups: fixtures, reference records under the watchdog, server start and one untimed warm-up pass (excludes go build)", setupReps)},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "median over passes of correct ops / pass wall (runs/s for campaign_sweep and solve_*, requests/s for serve_mix)"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median wall of the workload's timed unit over the whole window"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "the workload's tail percentile of the same samples (see the workload table for which, and n)"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Doc: "VmHWM of the workload's own process at exit"},
}

const (
	mvSweep = "ops_per_s, op_p50_ms on campaign_sweep"
	mvWide  = "ops_per_s, op_p50_ms on solve_wide"
	mvDeep  = "ops_per_s, op_p50_ms on solve_deep"
	mvServe = "ops_per_s, op_p50_ms on serve_mix"
	mvNone  = "nothing: a host-time-only change must leave it bit-identical"
)

// The per-layer metrics, printed by the traced run (-trace 1). Layer
// probes (kernel, call) are workload-independent and measured in every
// traced run; count, replica and host rows describe the selected
// workload.
var layerMetrics = []metricDef{
	{Name: "comm.spawn_us_p4", Unit: "us", Better: "lower", Layer: "comm", Source: "call", Moves: mvSweep, Doc: "comm.Run with an empty rank body, 4 ranks"},
	{Name: "comm.spawn_us_p64", Unit: "us", Better: "lower", Layer: "comm", Source: "call", Moves: mvWide, Doc: "comm.Run with an empty rank body, 64 ranks"},
	{Name: "comm.allreduce_us_p8", Unit: "us", Better: "lower", Layer: "comm", Source: "kernel", Moves: mvWide + "; nothing on solve_deep", Doc: "kernel/comm-allreduce-p8"},
	{Name: "comm.allreduce_us_p64", Unit: "us", Better: "lower", Layer: "comm", Source: "kernel", Moves: mvWide + "; nothing on solve_deep", Doc: "kernel/comm-allreduce-p64"},
	{Name: "comm.colls_per_run", Unit: "count", Better: "lower", Layer: "comm", Source: "count", Moves: mvNone, Doc: "collectives per rank per run of the workload's identities (comm.Ledger; rank-kill cells excluded, their ledger is scheduling-dependent)"},
	{Name: "comm.msgs_per_run", Unit: "count", Better: "lower", Layer: "comm", Source: "count", Moves: mvNone, Doc: "point-to-point sends per run, all ranks (same identities)"},
	{Name: "comm.flops_per_run", Unit: "count", Better: "lower", Layer: "comm", Source: "count", Moves: mvNone, Doc: "modelled flops per run, all ranks (same identities)"},
	{Name: "comm.vtime_s_per_run", Unit: "s", Better: "lower", Layer: "comm", Source: "count", Moves: mvNone, Doc: "virtual seconds to solution per run (Record.VTime, all identities)"},
	{Name: "comm.est_sync_share", Unit: "share", Better: "lower", Layer: "comm", Source: "computed", Moves: "explains ops_per_s on solve_wide", Doc: "computed on the replica cell: its collectives per rank x allreduce_us (p64 kernel at >= 32 ranks, else p8) / its median ExecuteRunEnv wall"},
	{Name: "comm.world_share", Unit: "share", Better: "lower", Layer: "comm", Source: "replica", Moves: mvWide, Doc: "replica: comm.Run self time (spawn, join, waiting for the slowest rank) / replica wall"},
	{Name: "dist.csr_apply_us_p4", Unit: "us", Better: "lower", Layer: "dist", Source: "kernel", Moves: mvDeep, Doc: "kernel/dist-csr-apply-p4"},
	{Name: "dist.build_share", Unit: "share", Better: "lower", Layer: "dist", Source: "replica", Moves: mvSweep, Doc: "replica: dist.NewCSR on rank 0 / replica wall"},
	{Name: "dist.apply_share", Unit: "share", Better: "lower", Layer: "dist", Source: "replica", Moves: mvDeep, Doc: "replica: operator applications on rank 0 / replica wall"},
	{Name: "la.spmv_us", Unit: "us", Better: "lower", Layer: "la", Source: "kernel", Moves: mvDeep, Doc: "kernel/spmv-poisson2d-256"},
	{Name: "la.dot_us", Unit: "us", Better: "lower", Layer: "la", Source: "kernel", Moves: mvDeep, Doc: "kernel/dot-65536"},
	{Name: "krylov.gmres_iter_us", Unit: "us", Better: "lower", Layer: "krylov", Source: "kernel", Moves: mvDeep, Doc: "kernel/gmres-serial-iter"},
	{Name: "krylov.dist_gmres_iter_us_p4", Unit: "us", Better: "lower", Layer: "krylov", Source: "kernel", Moves: mvDeep + " (arithmetic) and solve_wide (reduction count)", Doc: "kernel/dist-gmres-iter-p4"},
	{Name: "krylov.self_share", Unit: "share", Better: "lower", Layer: "krylov", Source: "replica", Moves: mvDeep + " and solve_wide", Doc: "replica: krylov.DistGMRES minus operator and preconditioner applications / replica wall"},
	{Name: "krylov.iters_per_run", Unit: "count", Better: "lower", Layer: "krylov", Source: "count", Moves: mvNone, Doc: "mean Record.Iters over the workload's identities"},
	{Name: "precond.bjacobi_apply_us_p4", Unit: "us", Better: "lower", Layer: "precond", Source: "kernel", Moves: mvDeep, Doc: "kernel/precond-bjacobi-apply-p4"},
	{Name: "precond.chebyshev_apply_us_p4", Unit: "us", Better: "lower", Layer: "precond", Source: "kernel", Moves: mvDeep, Doc: "kernel/precond-chebyshev-apply-p4"},
	{Name: "precond.setup_ms_g96", Unit: "ms", Better: "lower", Layer: "precond", Source: "call", Moves: mvDeep, Doc: "BlockJacobiILU.Setup on rank 0 of 2, grid 96"},
	{Name: "precond.setup_share", Unit: "share", Better: "lower", Layer: "precond", Source: "replica", Moves: mvDeep, Doc: "replica: preconditioner Setup on rank 0 / replica wall"},
	{Name: "precond.apply_share", Unit: "share", Better: "lower", Layer: "precond", Source: "replica", Moves: mvDeep, Doc: "replica: preconditioner applications on rank 0 / replica wall"},
	{Name: "fault.bitflip_pass_us", Unit: "us", Better: "lower", Layer: "fault", Source: "kernel", Moves: "op_tail_ms on solve_deep (bit-flip cells are its tail)", Doc: "kernel/bitflip-pass-4096"},
	{Name: "skp.check_suite_us", Unit: "us", Better: "lower", Layer: "skp", Source: "kernel", Moves: "none of the four workloads runs skp; kept so a later skp workload has history", Doc: "kernel/skp-check-suite"},
	{Name: "skp.checked_apply_us", Unit: "us", Better: "lower", Layer: "skp", Source: "kernel", Moves: "as skp.check_suite_us", Doc: "kernel/skp-checked-apply"},
	{Name: "srp.discards_per_run", Unit: "count", Better: "lower", Layer: "srp", Source: "count", Moves: mvNone, Doc: "mean Record.Discards over the workload's identities"},
	{Name: "problems.assemble_ms_g12", Unit: "ms", Better: "lower", Layer: "problems", Source: "call", Moves: mvSweep + " (assembled every run)", Doc: "campaign.BuildProblem(poisson, 12)"},
	{Name: "problems.assemble_ms_g96", Unit: "ms", Better: "lower", Layer: "problems", Source: "call", Moves: mvDeep, Doc: "campaign.BuildProblem(poisson, 96)"},
	{Name: "problems.assemble_share", Unit: "share", Better: "lower", Layer: "problems", Source: "replica", Moves: mvSweep, Doc: "replica: BuildProblem / replica wall"},
	{Name: "campaign.expand_ms", Unit: "ms", Better: "lower", Layer: "campaign", Source: "spans", Moves: "op_p50_ms on campaign_sweep only", Doc: "Spec.ShardRuns on the quick spec (936 runs)"},
	{Name: "campaign.execute_share", Unit: "share", Better: "higher", Layer: "campaign", Source: "spans", Moves: "op_p50_ms on campaign_sweep only", Doc: "ExecuteRunEnv busy time / all span self time of one perf-driven quick pass; the rest is bookkeeping"},
	{Name: "campaign.record_write_us", Unit: "us", Better: "lower", Layer: "campaign", Source: "spans", Moves: mvSweep + " only", Doc: "median Writer.Write (encode + O_APPEND) per record"},
	{Name: "campaign.bytes_per_record", Unit: "B", Better: "lower", Layer: "campaign", Source: "count", Moves: mvNone, Doc: "JSONL bytes / 936 records"},
	{Name: "campaign.read_ms", Unit: "ms", Better: "lower", Layer: "campaign", Source: "spans", Moves: "op_p50_ms on campaign_sweep only", Doc: "ReadShardFile, 936 records"},
	{Name: "campaign.aggregate_ms", Unit: "ms", Better: "lower", Layer: "campaign", Source: "spans", Moves: "op_p50_ms on campaign_sweep only", Doc: "AggregateRecords incl. bootstrap CIs, 312 cells"},
	{Name: "campaign.report_ms", Unit: "ms", Better: "lower", Layer: "campaign", Source: "spans", Moves: "op_p50_ms on campaign_sweep only", Doc: "BuildReport (Markdown + CSV)"},
	{Name: "campaign.bookkeeping_share", Unit: "share", Better: "lower", Layer: "campaign", Source: "replica", Moves: mvSweep, Doc: "1 - replica wall / ExecuteRunEnv wall for the replica cell: what campaign adds around the solve"},
	{Name: "service.healthz_rtt_us", Unit: "us", Better: "lower", Layer: "service", Source: "spans", Moves: mvServe, Doc: "median GET /healthz round trip: the loopback HTTP floor"},
	{Name: "service.hit_rtt_us", Unit: "us", Better: "lower", Layer: "service", Source: "spans", Moves: mvServe, Doc: "median client round trip, journal-hit requests"},
	{Name: "service.exec_rtt_ms", Unit: "ms", Better: "lower", Layer: "service", Source: "spans", Moves: mvServe, Doc: "median client round trip, executed plain requests"},
	{Name: "service.sse_rtt_ms", Unit: "ms", Better: "lower", Layer: "service", Source: "spans", Moves: mvServe, Doc: "median client round trip, executed streamed requests"},
	{Name: "service.encode_us", Unit: "us", Better: "lower", Layer: "service", Source: "spans", Moves: mvServe, Doc: "median client-side request encode"},
	{Name: "service.decode_us", Unit: "us", Better: "lower", Layer: "service", Source: "spans", Moves: mvServe, Doc: "median client-side response decode"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower", Layer: "service", Source: "scrape", Moves: "op_p50_ms rises with it before ops_per_s flattens, on serve_mix", Doc: "sum/count of repro_run_queue_wait_seconds scraped from /metrics"},
	{Name: "service.execute_ms", Unit: "ms", Better: "lower", Layer: "service", Source: "scrape", Moves: mvServe, Doc: "sum/count of repro_run_execute_seconds scraped from /metrics"},
	{Name: "service.setup_hit_ratio", Unit: "ratio", Better: "higher", Layer: "service", Source: "scrape", Moves: mvServe, Doc: "/stats setup_hits / (hits + misses)"},
	{Name: "service.problem_hit_ratio", Unit: "ratio", Better: "higher", Layer: "service", Source: "scrape", Moves: mvServe, Doc: "/stats problem_hits / (hits + misses)"},
	{Name: "service.rejected", Unit: "count", Better: "lower", Layer: "service", Source: "scrape", Moves: "must stay 0: a 503 is a failed op", Doc: "/stats rejected"},
	{Name: "service.http_overhead_share", Unit: "share", Better: "lower", Layer: "service", Source: "computed", Moves: mvServe, Doc: "1 - sum(server execute) / sum(client rtt) over one round"},
	{Name: "journal.append_us", Unit: "us", Better: "lower", Layer: "service", Source: "call", Moves: "ops_per_s, op_tail_ms on serve_mix; nothing elsewhere", Doc: "median OpenJournal sink Append of one run entry, fsync off"},
	{Name: "journal.append_fsync_us", Unit: "us", Better: "lower", Layer: "service", Source: "call", Moves: "informational: host-disk dependent, not in any e2e number", Doc: "the same with fsync always (32 appends)"},
	{Name: "journal.snapshot_ms", Unit: "ms", Better: "lower", Layer: "service", Source: "call", Moves: "op_tail_ms on serve_mix (4 rotations per round)", Doc: "WriteSnapshot of 936 records"},
	{Name: "journal.resume_ms", Unit: "ms", Better: "lower", Layer: "service", Source: "call", Moves: "setup_s on serve_mix", Doc: "service.New + Close on the journal directory a 936-run round left behind"},
	{Name: "journal.bytes_per_run", Unit: "B", Better: "lower", Layer: "service", Source: "count", Moves: mvNone, Doc: "bytes of one journal run entry, mean over 936"},
	{Name: "obs.disabled_event_ns", Unit: "ns", Better: "lower", Layer: "obs", Source: "kernel", Moves: "ops_per_s on every workload (disabled path)", Doc: "kernel/obs-disabled-telemetry"},
	{Name: "obs.disabled_event_allocs", Unit: "allocs/op", Better: "lower", Layer: "obs", Source: "kernel", Moves: "must stay 0", Doc: "allocs/op of the same kernel, 4096 ops"},
	{Name: "obs.disabled_span_ns", Unit: "ns", Better: "lower", Layer: "obs", Source: "kernel", Moves: "ops_per_s on every workload (disabled path)", Doc: "kernel/obs-disabled-span"},
	{Name: "obs.disabled_span_allocs", Unit: "allocs/op", Better: "lower", Layer: "obs", Source: "kernel", Moves: "must stay 0", Doc: "allocs/op of the same kernel, 4096 ops"},
	{Name: "obs.comm_disabled_span_ns_p4", Unit: "ns", Better: "lower", Layer: "obs", Source: "kernel", Moves: "ops_per_s on every workload (disabled path)", Doc: "kernel/comm-disabled-span-p4"},
	{Name: "obs.comm_disabled_span_allocs_p4", Unit: "allocs/op", Better: "lower", Layer: "obs", Source: "kernel", Moves: "must stay 0", Doc: "allocs/op of the same kernel, 4096 ops"},
	{Name: "obs.enabled_metric_ns", Unit: "ns", Better: "lower", Layer: "obs", Source: "kernel", Moves: mvServe, Doc: "kernel/obs-enabled-metrics"},
	{Name: "obs.metrics_scrape_us", Unit: "us", Better: "lower", Layer: "obs", Source: "call", Moves: "nothing: scrapes are off the request path", Doc: "median GET /metrics after a round"},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: "lower", Layer: "obs", Source: "call", Moves: "op_p50_ms on campaign_sweep when tracing is on", Doc: "campaign.Run of quick-spec shard 0/4 (234 runs) with Options.TraceDir vs without, wall ratio - 1"},
	{Name: "traceq.render_ms", Unit: "ms", Better: "lower", Layer: "traceq", Source: "call", Moves: "nothing on the four workloads", Doc: "traceq.LoadDir + BuildReport on that shard's 234 traces"},
	{Name: "host.mallocs_per_op", Unit: "count", Better: "lower", Layer: "host", Source: "host", Moves: "peak_rss_mb, ops_per_s on the selected workload", Doc: "runtime.MemStats.Mallocs delta / ops over the untraced passes"},
	{Name: "host.alloc_kb_per_op", Unit: "KiB", Better: "lower", Layer: "host", Source: "host", Moves: "peak_rss_mb on the selected workload", Doc: "TotalAlloc delta / ops"},
	{Name: "host.gc_cpu_share", Unit: "share", Better: "lower", Layer: "host", Source: "host", Moves: "ops_per_s on the selected workload", Doc: "GC CPU seconds / total CPU seconds (runtime/metrics) over the untraced passes"},
	{Name: "host.cpu_s_per_wall_s", Unit: "ratio", Better: "lower", Layer: "host", Source: "host", Moves: "spinning instead of working shows here; at most the workload's P count (1 on solve_wide)", Doc: "getrusage user+sys delta / wall over the untraced passes"},
	{Name: "bench.segment_spread", Unit: "share", Better: "lower", Layer: "host", Source: "host", Moves: "a noisy box, not the code", Doc: "(max - min) / median throughput over the untraced passes"},
	{Name: "bench.span_overhead_share", Unit: "share", Better: "lower", Layer: "host", Source: "host", Moves: "the recorder, not the code", Doc: "traced wall / untraced wall - 1 on the same driver code (passes and replica)"},
	{Name: "bench.replica_wall_ratio", Unit: "ratio", Better: "lower", Layer: "host", Source: "replica", Moves: "should stay within 0.9..1.1", Doc: "median untraced replica wall / median ExecuteRunEnv wall of the same cell"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// benchmarkFile mirrors BENCHMARK.json. It is generated from the
// registry (`go run ./perf -describe json`), and a test fails when the
// committed file and the registry disagree.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func registryFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range e2eMetrics {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &b})
	}
	for _, m := range layerMetrics {
		f.PerLayer = append(f.PerLayer, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}

// describe prints the registry: "json" is BENCHMARK.json, "md" the
// tables perf/README.md embeds between its generated markers.
func describe(w io.Writer, format string) error {
	switch format {
	case "json":
		data, err := json.MarshalIndent(registryFile(), "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", data)
		return err
	case "md":
		_, err := io.WriteString(w, describeMarkdown())
		return err
	}
	return fmt.Errorf("perf: -describe takes md or json, not %q", format)
}

func describeMarkdown() string {
	var b strings.Builder
	b.WriteString("### Workloads\n\n| name | what an op is | tail percentile | why it exists |\n|---|---|---|---|\n")
	for _, w := range workloadDefs {
		fmt.Fprintf(&b, "| `%s` | %s | p%g %s | %s |\n", w.Name, w.Op, w.TailQ*100, w.Tail, w.Why)
	}
	b.WriteString("\n### End-to-end metrics (host time, span recorder off)\n\n| name | unit | better | bound | meaning |\n|---|---|---|---|---|\n")
	for _, m := range e2eMetrics {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %g%% | %s |\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Doc)
	}
	b.WriteString("\n### Per-layer metrics (traced run)\n\n| layer | name | unit | better | source | what it is | should move |\n|---|---|---|---|---|---|---|\n")
	for _, m := range layerMetrics {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s | %s | %s | %s |\n", m.Layer, m.Name, m.Unit, m.Better, m.Source, m.Doc, m.Moves)
	}
	return b.String()
}
