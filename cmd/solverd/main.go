// Command solverd runs the repro-solve/v1 service and its clients: a
// long-running HTTP server that schedules solve and campaign requests
// on a bounded worker pool with cross-request setup caching (serve), a
// campaign submitter that uses the engine as a load generator against
// a running server (submit), and a self-contained end-to-end check
// that byte-diffs served against direct execution (smoke). Run
// `solverd <mode> -h` for each flag set — a test pins every usage
// snippet in this comment, the README and docs/SERVICE.md against the
// flags the program actually parses.
//
// Common invocations:
//
//	solverd serve -addr :8077                                          # start the service
//	solverd serve -addr :8077 -workers 8 -queue 64                     # sized pool
//	solverd serve -addr :8077 -pprof -trace-dir traces                 # debug profiling + per-run traces
//	solverd serve -addr :8077 -trace-dir traces -trace-ranks all -trace-sample 1/4  # all-rank spans for a deterministic quarter of runs
//	solverd serve -addr :8077 -journal-dir journal -journal-fsync off  # durable: journal + snapshots + hot resume
//	solverd serve -addr :8077 -journal-dir journal -snapshot-every 128 -cache-max-entries 512
//	solverd serve -addr :8077 -log-level debug                         # structured key=value logs on stderr
//	solverd submit -addr http://localhost:8077 -spec quick -label dev  # campaign through the service
//	solverd submit -addr http://localhost:8077 -spec quick -shard 0/2 -runs shard0.jsonl -no-agg
//	solverd smoke -spec quick -label ci                                # in-process served-vs-direct diff
//	solverd smoke -spec quick -label kr -outdir out -journal-dir out/journal -kill-at run:40,stream:3,journal:80
//
// The spec is "quick", "full", or a path to a JSON Spec file; see
// docs/SERVICE.md for the wire schema and docs/CAMPAIGNS.md for the
// campaign formats.
//
// The server logs structured key=value lines to stderr, each carrying
// the deterministic request correlation ID (req=r-... / req=c-...)
// that also names trace files, stamps journal entries and rides SSE
// id: lines — see docs/OBSERVABILITY.md. GET /healthz is pure
// liveness; GET /readyz flips to 503 the moment a shutdown signal
// starts the drain, so load balancers stop routing before the
// listener closes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "submit":
		err = runSubmit(os.Args[2:])
	case "smoke":
		err = runSmoke(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "solverd: unknown mode %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, "solverd:", strings.TrimPrefix(err.Error(), "campaign: "))
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprintf(w, "usage: solverd <mode> [flags]\n\n")
	fmt.Fprintf(w, "modes:\n")
	fmt.Fprintf(w, "  serve    run the solve service (HTTP, repro-solve/v1)\n")
	fmt.Fprintf(w, "  submit   run a campaign against a live server (engine as load generator)\n")
	fmt.Fprintf(w, "  smoke    start an in-process server, submit a campaign, byte-diff vs direct\n")
}

// serveOptions carries the serve-mode flags.
type serveOptions struct {
	addr          string
	workers       int
	queue         int
	drain         time.Duration
	pprof         bool
	traceDir      string
	traceRanks    string
	traceSample   string
	journalDir    string
	journalFsync  string
	snapshotEvery int
	cacheMax      int
	logLevel      string
}

// newServeFlags builds the serve flag set; keeping construction in one
// function lets main_test.go verify documented invocations parse.
func newServeFlags() (*flag.FlagSet, *serveOptions) {
	o := &serveOptions{}
	fs := flag.NewFlagSet("solverd serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8077", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "solve pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "pending-solve queue depth (0 = 4x workers)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "shutdown drain deadline; in-flight requests past it are cut (size to your longest campaign request)")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in; exposes goroutine and heap internals)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write one repro-trace/v1 event timeline per executed run into this directory")
	fs.StringVar(&o.traceRanks, "trace-ranks", "0", "spans kept per trace: 0 (rank 0 only) or all (every rank, enables imbalance/critical-path analytics)")
	fs.StringVar(&o.traceSample, "trace-sample", "1/1", "trace a deterministic k/n sample of executed runs (seeded by run key; same subset on every rerun)")
	fs.StringVar(&o.journalDir, "journal-dir", "", "enable durability: keep the repro-journal/v1 run journal and repro-snapshot/v1 state snapshots in this directory, and resume from them on restart")
	fs.StringVar(&o.journalFsync, "journal-fsync", "always", "journal fsync policy: always (every append is a durability barrier) or off (OS-paced; a crash may lose the last appends, which simply re-execute)")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 256, "completed runs between state snapshots (each snapshot rotates the journal it captured)")
	fs.IntVar(&o.cacheMax, "cache-max-entries", 0, "LRU bound on resident setup-cache artifacts, per-rank slots (0 = unbounded)")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum level for the structured key=value log on stderr: debug, info, warn, error or off")
	return fs, o
}

// parseLogLevel maps the -log-level flag to a stderr logger; "off"
// returns nil, which every obs.Logger method treats as disabled.
func parseLogLevel(name string) (*obs.Logger, error) {
	levels := map[string]obs.Level{
		"debug": obs.LevelDebug, "info": obs.LevelInfo,
		"warn": obs.LevelWarn, "error": obs.LevelError,
	}
	if name == "off" {
		return nil, nil
	}
	lv, ok := levels[name]
	if !ok {
		return nil, fmt.Errorf("-log-level must be debug, info, warn, error or off, not %q", name)
	}
	return obs.NewLogger(os.Stderr, lv), nil
}

// parseFsync maps the -journal-fsync policy name to the boolean the
// service takes.
func parseFsync(policy string) (bool, error) {
	switch policy {
	case "always":
		return true, nil
	case "off":
		return false, nil
	default:
		return false, fmt.Errorf("-journal-fsync must be always or off, not %q", policy)
	}
}

// withPprof mounts the net/http/pprof handlers next to the service —
// explicitly, not via the package's DefaultServeMux side effect, so the
// profiling surface exists only behind the opt-in flag.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens a socket and stalls cannot
// hold a connection (and its goroutine) forever. Request bodies are
// small and bounded separately (maxRequestBytes in internal/service);
// responses stream for as long as a campaign runs, so no write or
// whole-request deadline is set.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the http.Server every mode serves through.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func runServe(args []string) error {
	fs, o := newServeFlags()
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fsync, err := parseFsync(o.journalFsync)
	if err != nil {
		return err
	}
	logger, err := parseLogLevel(o.logLevel)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Options{
		Workers: o.workers, Queue: o.queue, TraceDir: o.traceDir,
		TraceRanks: o.traceRanks, TraceSample: o.traceSample,
		JournalDir: o.journalDir, JournalFsync: fsync,
		SnapshotEvery: o.snapshotEvery, CacheMaxEntries: o.cacheMax,
		Logger: logger,
	})
	if err != nil {
		return err
	}
	if o.journalDir != "" {
		if stats := srv.Stats(); stats.Journal != nil {
			logger.Info("journal restored", "dir", o.journalDir,
				"records", stats.Journal.Records, "pending", stats.Journal.Pending,
				"sealed_tail", stats.Journal.SealedTail)
		}
	}
	handler := http.Handler(srv.Handler())
	if o.pprof {
		handler = withPprof(handler)
	}
	hs := newHTTPServer(o.addr, handler)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "proto", service.Schema, "addr", ln.Addr().String(),
		"workers", srv.Stats().Workers)

	// Graceful shutdown: flip readiness, stop accepting, drain in-flight
	// solves, exit. idle carries whether the drain beat the deadline.
	idle := make(chan bool, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Readiness drops first so load balancers stop routing here
		// while the listener finishes what it already accepted.
		srv.SetDraining(true)
		logger.Info("draining in-flight solves", "deadline", o.drain)
		ctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// Deadline hit with requests still in flight: actually cut
			// them — Shutdown on expiry only stops waiting, it severs
			// nothing — and skip the pool drain below, which would
			// otherwise execute every queued run of the requests just
			// cut.
			logger.Warn("drain deadline exceeded, cutting remaining requests", "err", err)
			hs.Close()
			idle <- false
			return
		}
		idle <- true
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	if drained := <-idle; !drained {
		logger.Info("shutdown complete", "drained", false)
		return nil
	}
	srv.Close()
	logger.Info("shutdown complete", "drained", true)
	return nil
}

// submitOptions carries the submit-mode flags.
type submitOptions struct {
	addr    string
	spec    string
	label   string
	seed    uint64
	shard   string
	runs    string
	resume  bool
	workers int
	noAgg   bool
	quiet   bool
}

// newSubmitFlags builds the submit flag set (see newServeFlags).
func newSubmitFlags() (*flag.FlagSet, *submitOptions) {
	o := &submitOptions{}
	fs := flag.NewFlagSet("solverd submit", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8077", "server base URL")
	fs.StringVar(&o.spec, "spec", "quick", "campaign spec: quick, full, or a JSON file path")
	fs.StringVar(&o.label, "label", "dev", "label; names the default output files")
	fs.Uint64Var(&o.seed, "seed", 0, "override the spec's campaign seed (0 keeps it)")
	fs.StringVar(&o.shard, "shard", "0/1", "submit only cells with index%n == k, as k/n")
	fs.StringVar(&o.runs, "runs", "", "JSONL run-record path (default campaign_<label>.jsonl)")
	fs.BoolVar(&o.resume, "resume", false, "keep existing records in -runs and submit only missing runs")
	fs.IntVar(&o.workers, "workers", 0, "concurrent in-flight requests (0 = GOMAXPROCS)")
	fs.BoolVar(&o.noAgg, "no-agg", false, "skip aggregation after the run (sharded jobs)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-run progress lines")
	return fs, o
}

func runSubmit(args []string) error {
	fs, o := newSubmitFlags()
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := campaign.LoadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.seed != 0 {
		spec.Seed = o.seed
	}
	shard, shards, err := campaign.ParseShard(o.shard)
	if err != nil {
		return err
	}
	cl := &service.Client{Base: o.addr}
	if err := cl.Healthz(); err != nil {
		return fmt.Errorf("server %s is not healthy: %w", o.addr, err)
	}
	runsPath := o.runs
	if runsPath == "" {
		runsPath = "campaign_" + o.label + ".jsonl"
	}
	opts := campaign.Options{
		Spec: spec, Shard: shard, Shards: shards, Workers: o.workers,
		Out: runsPath, Resume: o.resume, Exec: cl.Exec,
	}
	if !o.quiet {
		opts.Progress = os.Stderr
	}
	st, err := campaign.Run(opts)
	if err != nil {
		return err
	}
	fmt.Printf("shard %d/%d via %s: %d cells, %d runs (%d resumed, %d executed, %d errored) -> %s\n",
		shard, shards, o.addr, st.Cells, st.Planned, st.Resumed, st.Executed, st.Errored, runsPath)
	if stats, err := cl.Stats(); err == nil {
		fmt.Printf("server: %d completed, setup cache %d hits / %d misses, problem cache %d hits / %d misses\n",
			stats.Completed, stats.Cache.SetupHits, stats.Cache.SetupMisses,
			stats.Cache.ProblemHits, stats.Cache.ProblemMisses)
	}
	if o.noAgg {
		return nil
	}
	if shards != 1 {
		return fmt.Errorf("a single shard is incomplete; aggregate all shards with campaign -aggregate-only (or pass -no-agg)")
	}
	agg, err := campaign.AggregateFiles(spec, o.label, runsPath)
	if err != nil {
		return err
	}
	aggPath := "CAMPAIGN_" + o.label + ".json"
	if err := campaign.WriteAggregate(agg, aggPath); err != nil {
		return err
	}
	fmt.Printf("aggregated %d runs (%d successes) over %d cells -> %s\n",
		agg.Runs, agg.Successes, len(agg.Cells), aggPath)
	return nil
}

// smokeOptions carries the smoke-mode flags.
type smokeOptions struct {
	spec       string
	label      string
	outdir     string
	workers    int
	killAt     string
	journalDir string
}

// newSmokeFlags builds the smoke flag set (see newServeFlags).
func newSmokeFlags() (*flag.FlagSet, *smokeOptions) {
	o := &smokeOptions{}
	fs := flag.NewFlagSet("solverd smoke", flag.ContinueOnError)
	fs.StringVar(&o.spec, "spec", "quick", "campaign spec: quick, full, or a JSON file path")
	fs.StringVar(&o.label, "label", "smoke", "label; names the output aggregates")
	fs.StringVar(&o.outdir, "outdir", "", "directory for the JSONL and aggregate outputs (default cwd; created if missing)")
	fs.IntVar(&o.workers, "workers", 0, "pool size and submit concurrency (0 = GOMAXPROCS)")
	fs.StringVar(&o.killAt, "kill-at", "", "kill-and-replay mode: comma-separated crash points (run:N = die after the Nth journaled run, journal:N = tear the Nth run append mid-line, stream:N = die after N streamed records), each crashing and restarting the server before a final resumed pass is byte-diffed against direct execution")
	fs.StringVar(&o.journalDir, "journal-dir", "", "journal directory for -kill-at (default <outdir>/journal-<label>)")
	return fs, o
}

// runSmoke is the end-to-end proof in one process: start a real HTTP
// server on a loopback port, run the campaign directly AND through the
// server, and byte-diff the two aggregates. This is what the CI
// solverd-smoke job runs.
func runSmoke(args []string) error {
	fs, o := newSmokeFlags()
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := campaign.LoadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.outdir != "" {
		if err := os.MkdirAll(o.outdir, 0o755); err != nil {
			return err
		}
	}
	if o.killAt != "" {
		return runKillReplay(spec, o)
	}

	// Direct execution: the oracle.
	directRuns := filepath.Join(o.outdir, "campaign_"+o.label+"-direct.jsonl")
	if _, err := campaign.Run(campaign.Options{Spec: spec, Workers: o.workers, Out: directRuns}); err != nil {
		return err
	}
	directAgg, err := campaign.AggregateFiles(spec, o.label, directRuns)
	if err != nil {
		return err
	}

	// Served execution: a real listener, a real client. The served pass
	// traces every rank of every run — the byte-diff against the
	// untraced direct pass below is the proof that all-rank tracing
	// never perturbs results, and the traces feed the phase-histogram
	// reconciliation in checkMetrics.
	traceDir := filepath.Join(o.outdir, "traces-"+o.label)
	ls, err := startServer(service.Options{Workers: o.workers, TraceDir: traceDir, TraceRanks: "all"})
	if err != nil {
		return err
	}
	defer ls.stop()
	cl := ls.cl
	if err := cl.Healthz(); err != nil {
		return err
	}

	servedRuns := filepath.Join(o.outdir, "campaign_"+o.label+"-served.jsonl")
	st, err := campaign.Run(campaign.Options{Spec: spec, Workers: o.workers, Out: servedRuns, Exec: cl.Exec})
	if err != nil {
		return err
	}
	if st.Errored > 0 {
		return fmt.Errorf("smoke: %d of %d served runs errored", st.Errored, st.Executed)
	}
	servedAgg, err := campaign.AggregateFiles(spec, o.label, servedRuns)
	if err != nil {
		return err
	}

	directPath := filepath.Join(o.outdir, "CAMPAIGN_"+o.label+"-direct.json")
	servedPath := filepath.Join(o.outdir, "CAMPAIGN_"+o.label+"-served.json")
	if err := campaign.WriteAggregate(directAgg, directPath); err != nil {
		return err
	}
	if err := campaign.WriteAggregate(servedAgg, servedPath); err != nil {
		return err
	}
	da, err := os.ReadFile(directPath)
	if err != nil {
		return err
	}
	sa, err := os.ReadFile(servedPath)
	if err != nil {
		return err
	}
	stats, err := cl.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("smoke: %d runs served (%d workers), setup cache %d hits / %d misses\n",
		stats.Completed, o.workers, stats.Cache.SetupHits, stats.Cache.SetupMisses)
	if !bytes.Equal(da, sa) {
		return fmt.Errorf("smoke: %s and %s differ — all-rank traced execution is not byte-identical to untraced", directPath, servedPath)
	}
	if stats.Cache.SetupHits == 0 {
		return fmt.Errorf("smoke: setup cache reported no hits under repeated-cell traffic")
	}
	if err := checkMetrics(cl.Base, stats, traceDir); err != nil {
		return err
	}
	// A machine-readable verdict line for the CI log.
	verdict, _ := json.Marshal(map[string]any{
		"schema": service.Schema, "smoke": "ok", "runs": stats.Completed,
		"setup_hits": stats.Cache.SetupHits, "setup_misses": stats.Cache.SetupMisses,
	})
	fmt.Println(string(verdict))
	return nil
}

// checkMetrics scrapes GET /metrics after the loadgen traffic and
// asserts the Prometheus surface reconciles exactly with /stats: both
// read the same counters, so any disagreement is a wiring bug worth
// failing CI over. traceDir, when non-empty, holds the all-rank traces
// of the same runs; the per-phase virtual-duration histograms must then
// reconcile with the spans the traces persisted — counts exactly, sums
// to float tolerance (accumulation order differs across workers).
func checkMetrics(base string, stats service.StatsResponse, traceDir string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	series, err := obs.ParseText(body)
	if err != nil {
		return fmt.Errorf("smoke: /metrics is not valid exposition text: %w", err)
	}
	for name, want := range map[string]int64{
		"repro_runs_completed_total":       stats.Completed,
		"repro_runs_errored_total":         stats.Errored,
		"repro_setup_cache_hits_total":     stats.Cache.SetupHits,
		"repro_setup_cache_misses_total":   stats.Cache.SetupMisses,
		"repro_problem_cache_hits_total":   stats.Cache.ProblemHits,
		"repro_problem_cache_misses_total": stats.Cache.ProblemMisses,
	} {
		got, ok := series[name]
		if !ok {
			return fmt.Errorf("smoke: /metrics is missing %s", name)
		}
		if got != float64(want) {
			return fmt.Errorf("smoke: %s is %g on /metrics but %d on /stats", name, got, want)
		}
	}
	for _, h := range []string{"repro_run_queue_wait_seconds", "repro_run_execute_seconds"} {
		if series[h+"_count"] != float64(stats.Completed) {
			return fmt.Errorf("smoke: %s_count is %g, want one observation per completed run (%d)",
				h, series[h+"_count"], stats.Completed)
		}
	}
	if traceDir != "" {
		if err := checkPhaseMetrics(series, traceDir); err != nil {
			return err
		}
	}
	fmt.Printf("smoke: /metrics reconciles with /stats (%d series scraped)\n", len(series))
	return nil
}

// checkPhaseMetrics reconciles repro_phase_vseconds against the
// all-rank traces of the same runs: every phase span a trace persisted
// is exactly one histogram observation (restart-recovery excluded — it
// is a harness-stream annotation, not a phase the solve spent time in).
func checkPhaseMetrics(series map[string]float64, traceDir string) error {
	paths, err := filepath.Glob(filepath.Join(traceDir, "*.trace.jsonl"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("smoke: no traces in %s — the served pass should have traced every run", traceDir)
	}
	count := map[string]int{}
	sum := map[string]float64{}
	for _, p := range paths {
		tr, err := obs.ReadTraceFile(p)
		if err != nil {
			return err
		}
		for _, ev := range tr.Events {
			if ev.Name != obs.EventSpan || ev.Detail == obs.PhaseRestartRecovery {
				continue
			}
			count[ev.Detail]++
			sum[ev.Detail] += ev.Dur
		}
	}
	if count[obs.PhaseAllreduce] == 0 || count[obs.PhaseSpMV] == 0 {
		return fmt.Errorf("smoke: traces carry no allreduce/spmv spans — all-rank capture is not working")
	}
	for phase, n := range count {
		key := fmt.Sprintf("repro_phase_vseconds_count{phase=%q}", phase)
		if got := series[key]; got != float64(n) {
			return fmt.Errorf("smoke: %s is %g but the traces persisted %d %s spans", key, got, n, phase)
		}
		skey := fmt.Sprintf("repro_phase_vseconds_sum{phase=%q}", phase)
		got, want := series[skey], sum[phase]
		if diff := got - want; diff < -1e-9*want || diff > 1e-9*want {
			return fmt.Errorf("smoke: %s is %g but the traces sum to %g", skey, got, want)
		}
	}
	fmt.Printf("smoke: repro_phase_vseconds reconciles with %d traces (%d phases)\n", len(paths), len(count))
	return nil
}

// killReplaySnapshotEvery is the snapshot cadence the kill-replay
// harness runs with — small, so crash passes exercise snapshot writes
// and journal rotation, not just raw journal replay.
const killReplaySnapshotEvery = 16

// killPoint is one parsed -kill-at crash point.
type killPoint struct {
	mode string // "run", "journal" or "stream"
	n    int
}

// parseKillPoints parses the -kill-at list ("run:40,stream:3,journal:80").
func parseKillPoints(s string) ([]killPoint, error) {
	var kps []killPoint
	for _, part := range strings.Split(s, ",") {
		mode, num, ok := strings.Cut(strings.TrimSpace(part), ":")
		var n int
		if ok {
			if _, err := fmt.Sscanf(num, "%d", &n); err != nil {
				ok = false
			}
		}
		if !ok || n < 1 || (mode != "run" && mode != "journal" && mode != "stream") {
			return nil, fmt.Errorf("-kill-at: %q is not run:N, journal:N or stream:N with N >= 1", part)
		}
		kps = append(kps, killPoint{mode: mode, n: n})
	}
	return kps, nil
}

// liveServer is one in-process solverd behind a real loopback listener.
type liveServer struct {
	srv *service.Server
	hs  *http.Server
	cl  *service.Client
}

func startServer(opts service.Options) (*liveServer, error) {
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := newHTTPServer("", srv.Handler())
	go hs.Serve(ln)
	return &liveServer{srv: srv, hs: hs, cl: &service.Client{Base: "http://" + ln.Addr().String()}}, nil
}

func (ls *liveServer) stop() {
	ls.hs.Close()
	ls.srv.Close()
}

// crashPass drives the campaign into a durable server and crashes it at
// the seeded kill point: the journal sink goes dead (a dead process
// journals nothing) and the listener is severed mid-whatever-was-
// happening. The journal directory is left exactly as a real crash
// would leave it — possibly with a torn trailing line.
func crashPass(spec campaign.Spec, o *smokeOptions, dir string, kp killPoint) error {
	inner, err := service.OpenJournal(dir, false)
	if err != nil {
		return err
	}
	cs := &service.CrashSink{Inner: inner}
	switch kp.mode {
	case "run":
		cs.DieAfterRun = kp.n
	case "journal":
		cs.TearAtRun = kp.n
	}
	ls, err := startServer(service.Options{
		Workers: o.workers, JournalDir: dir, JournalSink: cs,
		SnapshotEvery: killReplaySnapshotEvery,
	})
	if err != nil {
		inner.Close()
		return err
	}
	// The crash callback runs on whatever goroutine hit the kill point
	// (possibly a pool worker mid-append), so the listener teardown is
	// asynchronous — exactly like a process dying under the handler.
	cs.OnCrash = func() { go ls.hs.Close() }

	streamed := 0
	serr := ls.cl.CampaignStream(service.CampaignRequest{Schema: service.Schema, Spec: spec},
		func(rec campaign.Record) error {
			streamed++
			if kp.mode == "stream" && streamed == kp.n {
				cs.Kill()
			}
			return nil
		})
	_ = serr // the severed stream is the expected outcome of a crash
	if !cs.Crashed() {
		ls.stop()
		return fmt.Errorf("kill-replay: kill point %s:%d never fired (%d records streamed — is N larger than the campaign?)", kp.mode, kp.n, streamed)
	}
	// Reap the pool. Runs completing after the crash hit the dead sink
	// and are journaled nowhere, exactly like work lost with a process.
	ls.srv.Close()
	return nil
}

// runKillReplay is the kill-and-replay determinism harness behind the
// smoke command's -kill-at flag: run the campaign directly (the oracle),
// then crash a durable server at each seeded kill point over one
// shared journal directory, then restart once more and stream the full
// campaign to completion. The resumed aggregate must be byte-identical
// to direct execution, every journaled run must be served as a journal
// hit, and the executed-run counter must show no recorded run was
// re-executed.
func runKillReplay(spec campaign.Spec, o *smokeOptions) error {
	kps, err := parseKillPoints(o.killAt)
	if err != nil {
		return err
	}
	dir := o.journalDir
	if dir == "" {
		dir = filepath.Join(o.outdir, "journal-"+o.label)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Direct execution: the oracle.
	directRuns := filepath.Join(o.outdir, "campaign_"+o.label+"-direct.jsonl")
	if _, err := campaign.Run(campaign.Options{Spec: spec, Workers: o.workers, Out: directRuns}); err != nil {
		return err
	}
	directAgg, err := campaign.AggregateFiles(spec, o.label, directRuns)
	if err != nil {
		return err
	}
	directPath := filepath.Join(o.outdir, "CAMPAIGN_"+o.label+"-direct.json")
	if err := campaign.WriteAggregate(directAgg, directPath); err != nil {
		return err
	}

	total := len(spec.ShardRuns(0, 1))
	for i, kp := range kps {
		fmt.Fprintf(os.Stderr, "kill-replay: crash pass %d/%d at %s:%d\n", i+1, len(kps), kp.mode, kp.n)
		if err := crashPass(spec, o, dir, kp); err != nil {
			return err
		}
	}

	// The resumed final pass: a fresh server over the same journal
	// directory, production sink, full campaign to completion.
	ls, err := startServer(service.Options{
		Workers: o.workers, JournalDir: dir,
		SnapshotEvery: killReplaySnapshotEvery,
	})
	if err != nil {
		return fmt.Errorf("kill-replay: restart after crashes failed: %w", err)
	}
	before, err := ls.cl.Stats()
	if err != nil {
		ls.stop()
		return err
	}
	if before.Journal == nil || before.Journal.Records == 0 {
		ls.stop()
		return fmt.Errorf("kill-replay: restarted server loaded no journaled runs — the crash passes recorded nothing")
	}
	recorded := before.Journal.Records

	servedRuns := filepath.Join(o.outdir, "campaign_"+o.label+"-served.jsonl")
	w, err := campaign.NewWriter(servedRuns, false)
	if err != nil {
		ls.stop()
		return err
	}
	serr := ls.cl.CampaignStream(service.CampaignRequest{Schema: service.Schema, Spec: spec},
		func(rec campaign.Record) error { return w.Write(rec) })
	w.Close()
	after, aerr := ls.cl.Stats()
	ls.stop()
	if serr != nil {
		return fmt.Errorf("kill-replay: resumed campaign failed: %w", serr)
	}
	if aerr != nil {
		return aerr
	}

	servedAgg, err := campaign.AggregateFiles(spec, o.label, servedRuns)
	if err != nil {
		return err
	}
	servedPath := filepath.Join(o.outdir, "CAMPAIGN_"+o.label+"-served.json")
	if err := campaign.WriteAggregate(servedAgg, servedPath); err != nil {
		return err
	}
	da, err := os.ReadFile(directPath)
	if err != nil {
		return err
	}
	sa, err := os.ReadFile(servedPath)
	if err != nil {
		return err
	}
	if !bytes.Equal(da, sa) {
		return fmt.Errorf("kill-replay: %s and %s differ — the resumed campaign is not byte-identical to direct execution", directPath, servedPath)
	}
	if after.Journal == nil || after.Journal.Hits != recorded {
		return fmt.Errorf("kill-replay: %d journaled runs but %v journal hits — recorded runs were not all served from the journal", recorded, after.Journal)
	}
	if after.Completed != int64(total)-recorded {
		return fmt.Errorf("kill-replay: %d runs executed on resume, want %d (total %d - %d recorded) — a recorded run was re-executed", after.Completed, int64(total)-recorded, total, recorded)
	}
	verdict, _ := json.Marshal(map[string]any{
		"schema": service.Schema, "kill_replay": "ok", "kill_points": o.killAt,
		"total_runs": total, "recorded": recorded, "journal_hits": after.Journal.Hits,
		"resumed_executed": after.Completed, "snapshots": after.Journal.Snapshots,
	})
	fmt.Println(string(verdict))
	return nil
}
