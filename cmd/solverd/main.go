// Command solverd runs the repro-solve/v1 service: a long-running HTTP
// server that schedules solve requests on a bounded worker pool with
// cross-request setup caching (serve), and a self-contained end-to-end
// check that byte-diffs served against direct execution (smoke). A
// whole campaign runs through a live server with `campaign -server
// URL`, the campaign engine posting each run as one solve. Run
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
//	solverd serve -addr :8077 -journal-dir journal -journal-fsync off  # durable: run journal + hot resume
//	solverd serve -addr :8077 -journal-dir journal -cache-max-entries 512
//	solverd serve -addr :8077 -log-level debug                         # structured key=value logs on stderr
//	solverd smoke -spec quick -label ci                                # in-process served-vs-direct diff
//	solverd smoke -spec quick -label kr -outdir out -journal-dir out/journal -kill-at run:40,stream:3,journal:80
//
// The spec is "quick", "full", or a path to a JSON Spec file; see
// docs/SERVICE.md for the wire schema and docs/CAMPAIGNS.md for the
// campaign formats.
//
// The server logs structured key=value lines to stderr, each carrying
// the deterministic request correlation ID (req=r-...) that also names
// trace files, stamps journal entries and rides SSE id: lines — see
// docs/OBSERVABILITY.md. GET /healthz is pure liveness; GET /readyz
// flips to 503 the moment a shutdown signal starts the drain, so load
// balancers stop routing before the listener closes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
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
	fmt.Fprintf(w, "  smoke    start an in-process server, run a campaign through it, byte-diff vs direct\n")
}

// serveOptions carries the serve-mode flags.
type serveOptions struct {
	addr         string
	workers      int
	queue        int
	drain        time.Duration
	pprof        bool
	traceDir     string
	traceRanks   string
	traceSample  string
	journalDir   string
	journalFsync string
	cacheMax     int
	logLevel     string
}

// newServeFlags builds the serve flag set; keeping construction in one
// function lets main_test.go verify documented invocations parse.
func newServeFlags() (*flag.FlagSet, *serveOptions) {
	o := &serveOptions{}
	fs := flag.NewFlagSet("solverd serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8077", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "solve pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "pending-solve queue depth (0 = 4x workers)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "shutdown drain deadline; in-flight requests past it are cut (size to your longest solve)")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in; exposes goroutine and heap internals)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write one repro-trace/v1 event timeline per executed run into this directory")
	fs.StringVar(&o.traceRanks, "trace-ranks", "0", "spans kept per trace: 0 (rank 0 only) or all (every rank, enables imbalance/critical-path analytics)")
	fs.StringVar(&o.traceSample, "trace-sample", "1/1", "trace a deterministic k/n sample of executed runs (seeded by run key; same subset on every rerun)")
	fs.StringVar(&o.journalDir, "journal-dir", "", "enable durability: keep the repro-journal/v1 run journal in this directory, and resume from it on restart")
	fs.StringVar(&o.journalFsync, "journal-fsync", "always", "journal fsync policy: always (every append is a durability barrier) or off (OS-paced; a crash may lose the last appends, which simply re-execute)")
	fs.IntVar(&o.cacheMax, "cache-max-entries", 0, "LRU bound on resident setup-cache artifacts, per-rank slots (0 = unbounded)")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum level for the structured key=value log on stderr: debug, info, warn, error or off")
	return fs, o
}

// parseLogLevel maps the -log-level flag to a logger writing to w;
// "off" discards every record.
func parseLogLevel(w io.Writer, name string) (*slog.Logger, error) {
	levels := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	}
	if name == "off" {
		return slog.New(slog.DiscardHandler), nil
	}
	lv, ok := levels[name]
	if !ok {
		return nil, fmt.Errorf("-log-level must be debug, info, warn, error or off, not %q", name)
	}
	return obs.NewLogger(w, lv), nil
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
	logger, err := parseLogLevel(os.Stderr, o.logLevel)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Options{
		Workers: o.workers, Queue: o.queue, TraceDir: o.traceDir,
		TraceRanks: o.traceRanks, TraceSample: o.traceSample,
		JournalDir: o.journalDir, JournalFsync: fsync,
		CacheMaxEntries: o.cacheMax, Logger: logger,
	})
	if err != nil {
		return err
	}
	if o.journalDir != "" {
		if stats := srv.Stats(); stats.Journal != nil {
			logger.Info("journal restored", "dir", o.journalDir,
				"records", stats.Journal.Records, "sealed_tail", stats.Journal.SealedTail)
		}
	}
	handler := http.Handler(srv.Handler())
	if o.pprof {
		handler = withPprof(handler)
	}
	hs := service.NewHTTPServer(o.addr, handler)

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
	fs.IntVar(&o.workers, "workers", 0, "pool size and client concurrency (0 = GOMAXPROCS)")
	fs.StringVar(&o.killAt, "kill-at", "", "kill-and-replay mode: comma-separated crash points (run:N = die after the Nth journaled run, journal:N = tear the Nth run append mid-line, stream:N = die once the clients have received N answers, journal hits included), each crashing and restarting the server before a final resumed pass is byte-diffed against direct execution")
	fs.StringVar(&o.journalDir, "journal-dir", "", "journal directory for -kill-at (default <outdir>/journal-<label>)")
	return fs, o
}

// runSmoke runs the service's end-to-end proofs (service.Smoke, or
// service.KillReplay under -kill-at) and prints their verdict — what
// the CI solverd-smoke and kill-replay-smoke jobs run.
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
	var verdict map[string]any
	if o.killAt != "" {
		kills, err := service.ParseKillPoints(o.killAt)
		if err != nil {
			return fmt.Errorf("-kill-at: %w", err)
		}
		dir := o.journalDir
		if dir == "" {
			dir = filepath.Join(o.outdir, "journal-"+o.label)
		}
		res, err := service.KillReplay(spec, o.label, o.outdir, dir, o.workers, kills)
		if err != nil {
			return err
		}
		verdict = map[string]any{
			"schema": service.Schema, "kill_replay": "ok", "kill_points": o.killAt,
			"total_runs": res.Total, "recorded": res.Recorded, "journal_hits": res.Hits,
			"resumed_executed": res.Executed,
		}
	} else {
		rep, err := service.Smoke(spec, o.label, o.outdir, o.workers)
		if err != nil {
			return err
		}
		c := rep.Stats.Cache
		fmt.Printf("smoke: %d runs served (%d workers), setup cache %d hits / %d misses\n",
			rep.Stats.Completed, rep.Stats.Workers, c.SetupHits, c.SetupMisses)
		fmt.Printf("smoke: repro_phase_vseconds reconciles with %d traces (%d phases)\n", rep.Traces, rep.Phases)
		fmt.Printf("smoke: /metrics reconciles with /stats (%d series scraped)\n", len(rep.Series))
		verdict = map[string]any{
			"schema": service.Schema, "smoke": "ok", "runs": rep.Stats.Completed,
			"setup_hits": c.SetupHits, "setup_misses": c.SetupMisses,
		}
	}
	// A machine-readable verdict line for the CI log.
	line, _ := json.Marshal(verdict)
	fmt.Println(string(line))
	return nil
}
