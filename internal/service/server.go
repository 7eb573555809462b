package service

import (
	"encoding/json"
	"log/slog"
	"maps"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Workers sizes the solve pool (default GOMAXPROCS).
	Workers int
	// Queue is the pending-solve queue depth (default 4×Workers). A
	// full queue rejects new work with 503.
	Queue int
	// TraceDir, when non-empty, records every executed run's event
	// timeline (repro-trace/v1, see internal/obs) and writes it to
	// TraceDir as one JSONL file per run, exactly like the local
	// campaign engine's TraceDir. Reruns of a run key overwrite its
	// file — runs are deterministic, so the bytes are identical anyway.
	TraceDir string
	// TraceRanks selects which ranks' phase spans land in the traces:
	// "" or "0" keep the rank-0 filter, "all" captures every rank.
	// Requires TraceDir.
	TraceRanks string
	// TraceSample deterministically samples which runs get traced:
	// "k/n" traces run keys whose seeded hash falls in k of n residue
	// classes, "" or "1/1" traces every run. Identical across restarts
	// and client concurrency. Requires TraceDir. The three trace
	// settings mean what they mean to the campaign engine (see
	// campaign.NewTraceSelection).
	TraceSample string
	// JournalDir, when non-empty, enables durability: an append-only
	// repro-journal/v1 run journal lives there, and a restarted server
	// replays it (over any repro-snapshot/v1 snapshot an older server
	// left) and answers already-recorded runs without re-executing
	// them. See docs/SERVICE.md "Durability".
	JournalDir string
	// JournalFsync makes every journal append an fsync barrier (the
	// "always" policy). Off, the OS flushes on its own schedule: a
	// crash may lose the last few appends, which merely re-execute on
	// resume.
	JournalFsync bool
	// CacheMaxEntries bounds the setup cache's resident artifacts
	// (per-rank slots) with LRU eviction; 0 means unbounded.
	CacheMaxEntries int
	// journalSink overrides the journal's append target (the
	// kill-and-replay harness injects a crashSink here). Requires
	// JournalDir, which still locates the state to load.
	journalSink JournalSink
	// Logger receives the server's structured log lines (request
	// admission, run completion, journal hits), every one carrying
	// the req= correlation ID (see obs.NewLogger). Nil disables
	// logging: New substitutes a logger that discards every record.
	Logger *slog.Logger
}

// Server is the solve service: an http.Handler exposing the
// repro-solve/v1 endpoints over a shared worker pool and setup cache.
// Create one with New, mount Handler somewhere, and Close it to drain.
type Server struct {
	workers int
	trace   campaign.TraceSelection
	pool    *pool
	cache   *Cache
	durable *durable
	mux     *http.ServeMux
	start   time.Time
	log     *slog.Logger

	// draining flips /readyz to 503 while the server finishes queued
	// work; /healthz keeps answering 200 (the process is alive).
	draining atomic.Bool

	// The metric surface (see metrics.go): endpoint request counters,
	// queue-wait/execute latency histograms, and bridges sampling the
	// mu-guarded counters below at scrape time.
	registry    *obs.Registry
	endpoints   map[string]*obs.Counter
	queueWait   *obs.Histogram
	execSec     *obs.Histogram
	traceErrors *obs.Counter
	phaseSec    []*obs.Histogram // by obs.PhaseIndex; nil for restart-recovery

	mu        sync.Mutex
	received  int64
	completed int64
	errored   int64
	rejected  int64
	perSolver map[string]int64
}

// New builds a Server and starts its worker pool. With
// Options.JournalDir set it first restores durable state (journal
// replay over any older server's snapshot) and opens the journal for
// appending; a journal or snapshot that cannot be trusted fails
// construction rather than serving with amnesia.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = 4 * opts.Workers
	}
	trace, err := campaign.NewTraceSelection(opts.TraceDir, opts.TraceRanks, opts.TraceSample)
	if err != nil {
		return nil, err
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		workers:   opts.Workers,
		trace:     trace,
		pool:      newPool(opts.Workers, opts.Queue),
		cache:     NewCache(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		endpoints: make(map[string]*obs.Counter),
		perSolver: make(map[string]int64),
		log:       opts.Logger,
	}
	if opts.CacheMaxEntries > 0 {
		s.cache.SetMaxEntries(opts.CacheMaxEntries)
	}
	if opts.JournalDir != "" {
		d, err := newDurable(opts.JournalDir, opts.JournalFsync, opts.journalSink)
		if err != nil {
			s.pool.close()
			return nil, err
		}
		s.durable = d
	}
	s.initMetrics()
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("GET /stats", "stats", s.handleStats)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("POST /v1/solve", "solve", s.handleSolve)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool — every queued and running solve
// completes, then the workers exit — and, when durability is on,
// flushes and closes the journal. Stop the HTTP
// listener first (http.Server.Shutdown) so no new work arrives while
// draining.
func (s *Server) Close() {
	s.pool.close()
	if s.durable != nil {
		s.durable.close()
	}
}

// Cache exposes the server's setup cache (tests and /stats).
func (s *Server) Cache() *Cache { return s.cache }

// HealthzResponse is the body of GET /healthz.
type HealthzResponse struct {
	// Schema is "repro-solve/v1".
	Schema string `json:"schema"`
	// OK is true while the server accepts work.
	OK bool `json:"ok"`
}

// ReadyzResponse is the body of GET /readyz. Liveness and readiness
// are deliberately separate endpoints: /healthz answers 200 for as
// long as the process runs (don't restart me), while /readyz flips to
// 503 the moment draining starts (stop sending me traffic) even though
// queued runs are still finishing.
type ReadyzResponse struct {
	// Schema is "repro-solve/v1".
	Schema string `json:"schema"`
	// Ready is true while the server accepts new work.
	Ready bool `json:"ready"`
	// Draining is true once SetDraining(true) was called: the server is
	// finishing queued runs and refusing new ones.
	Draining bool `json:"draining,omitempty"`
}

// SetDraining flips the readiness signal. The serve loop calls it with
// true when shutdown begins, before http.Server.Shutdown, so load
// balancers and probes stop routing to a server that is finishing its
// queue.
func (s *Server) SetDraining(v bool) {
	if s.draining.Swap(v) != v {
		s.log.Info("readiness changed", "draining", v)
	}
}

// Draining reports the current readiness signal.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyzResponse{Schema: Schema, Ready: false, Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, ReadyzResponse{Schema: Schema, Ready: true})
}

// StatsResponse is the body of GET /stats — the same counters
// GET /metrics exposes in Prometheus text format (the canonical scrape
// surface), as one JSON object for humans and the typed Client.
type StatsResponse struct {
	// Schema is "repro-solve/v1".
	Schema string `json:"schema"`
	// Build is the binary's build identity — the same values
	// repro_build_info exposes as labels on /metrics.
	Build BuildInfo `json:"build"`
	// UptimeSec is seconds since the server started.
	UptimeSec float64 `json:"uptime_sec"`
	// Workers and QueueDepth describe the pool: fixed worker count,
	// currently queued runs, currently executing runs.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// Received counts runs accepted for execution; Completed the runs
	// finished; Errored the completed runs whose record carries a
	// harness error; Rejected the runs refused by a full queue.
	Received  int64 `json:"received"`
	Completed int64 `json:"completed"`
	Errored   int64 `json:"errored"`
	Rejected  int64 `json:"rejected"`
	// PerSolver counts completed runs by solver axis value.
	PerSolver map[string]int64 `json:"per_solver"`
	// Endpoints counts HTTP requests received, by endpoint name —
	// the same counters repro_http_requests_total exposes on /metrics.
	Endpoints map[string]int64 `json:"endpoints"`
	// Cache carries the setup cache's hit/miss/eviction counters.
	Cache CacheStats `json:"cache"`
	// Journal carries the durability counters; nil while the server
	// runs without a journal directory.
	Journal *JournalStats `json:"journal,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthzResponse{Schema: Schema, OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats samples the server's counters — the same object GET /stats
// serves (embedders and startup banners read it in-process).
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	resp := StatsResponse{
		Schema:     Schema,
		Build:      ReadBuildInfo(),
		UptimeSec:  time.Since(s.start).Seconds(),
		Workers:    s.workers,
		QueueDepth: s.pool.depth(),
		InFlight:   s.pool.running(),
		Received:   s.received,
		Completed:  s.completed,
		Errored:    s.errored,
		Rejected:   s.rejected,
		PerSolver:  maps.Clone(s.perSolver),
	}
	s.mu.Unlock()
	resp.Endpoints = make(map[string]int64, len(s.endpoints))
	for name, c := range s.endpoints {
		resp.Endpoints[name] = c.Value()
	}
	resp.Cache = s.cache.Stats()
	if s.durable != nil {
		js := s.durable.stats()
		resp.Journal = &js
	}
	return resp
}

// solveRun is a validated request with what handleSolve derives from it
// once: its spec and cell (SpecCell), run identity and correlation ID.
type solveRun struct {
	req       *SolveRequest
	spec      campaign.Spec
	cell      campaign.Cell
	id, reqID string
}

// execute runs one request's solve on the calling goroutine (a pool
// worker) and updates the counters. The run's phase spans are staged
// for the per-phase histograms on /metrics and merged in when it
// completes — every run, traced or not. Its event stream goes to events
// (the SSE feeder; nil for none) and, when the server has a trace
// directory and the run is sampled, to a tracer whose timeline is
// persisted alongside; with neither, the run's worlds have no observer.
func (s *Server) execute(run *solveRun, events func(obs.Event)) campaign.Record {
	tr := s.trace.Tracer(&run.spec, run.cell, run.req.Rep) // nil when the run is not traced
	var trace func(obs.Event)                              // nil, not a bound nil method: Tee drops it
	if tr != nil {
		trace = tr.Observe
	}
	phases := obs.NewPhaseTally(s.phaseSec)
	rec := campaign.ExecuteRunEnv(&run.spec, run.cell, run.req.Rep, &campaign.ExecEnv{
		Problems: s.cache.Problem, Setups: s.cache, Phases: phases,
		Events: obs.Tee(events, trace),
	})
	phases.Flush()
	// The trace file leads with the request ID, so one glob joins a
	// request's trace against its journal entries and log lines.
	if _, err := campaign.WriteRunTraceAs(s.trace.Dir, tr,
		false, TraceName(run.reqID, run.cell.RunKey(run.req.Rep))); err != nil {
		// A failed trace write must not fail the solve: the record is
		// sound. It is counted, so a scrape surfaces the data loss.
		s.traceErrors.Inc()
		s.log.Warn("trace write failed", "req", run.reqID, "key", rec.Key, "err", err)
	}
	if s.durable != nil && !rec.Transient {
		// Transient harness errors are retryable by contract (campaign
		// resume re-executes them); journaling one would pin a failure
		// a restart should retry.
		s.durable.record(run.id, run.reqID, rec)
	}
	if rec.Err != "" {
		s.log.Warn("run errored", "req", run.reqID, "key", rec.Key, "error", rec.Err)
	} else {
		s.log.Debug("run completed", "req", run.reqID, "key", rec.Key,
			"converged", rec.Converged, "iters", rec.Iters, "vtime", rec.VTime)
	}
	s.mu.Lock()
	s.completed++
	s.perSolver[run.req.Solver]++
	if rec.Err != "" {
		s.errored++
	}
	s.mu.Unlock()
	return rec
}

// job wraps one run into a pool job that times its queue wait and
// execution (the two latency histograms on /metrics) and delivers the
// record on done.
func (s *Server) job(run *solveRun, events func(obs.Event), done chan<- campaign.Record) func() {
	enqueued := time.Now()
	return func() {
		started := time.Now()
		s.queueWait.Observe(started.Sub(enqueued).Seconds())
		rec := s.execute(run, events)
		s.execSec.Observe(time.Since(started).Seconds())
		done <- rec
	}
}

// schedule submits one run to the pool; the returned channel yields the
// record when it completes. ok is false when the queue is full.
func (s *Server) schedule(run *solveRun, events func(obs.Event)) (<-chan campaign.Record, bool) {
	done := make(chan campaign.Record, 1)
	accepted := s.pool.submit(s.job(run, events, done))
	s.mu.Lock()
	defer s.mu.Unlock()
	if !accepted {
		s.rejected++
		return nil, false
	}
	s.received++
	return done, true
}

// maxRequestBytes caps a request body: every field of a v1 solve
// request comfortably fits, while a memory-exhaustion body is refused
// at the transport.
const maxRequestBytes = 1 << 20

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req SolveRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, cell, err := req.Validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	run := &solveRun{req: &req, spec: spec, cell: cell, id: runIdentity(&req, cell)}
	run.reqID = requestID(run.id)
	if rec, ok := s.durable.lookup(run.id); ok {
		s.log.Info("solve answered from journal", "req", run.reqID, "key", rec.Key)
		if req.Stream {
			s.streamRecorded(w, run.reqID, rec)
		} else {
			writeJSON(w, http.StatusOK, SolveResponse{Schema: Schema, RequestID: run.reqID, Record: rec})
		}
		return
	}
	s.log.Info("solve accepted", "req", run.reqID, "solver", req.Solver,
		"problem", req.Problem, "ranks", req.Ranks, "stream", req.Stream)
	if req.Stream {
		s.streamSolve(r.Context(), w, run)
		return
	}
	done, ok := s.schedule(run, nil)
	if !ok {
		s.log.Warn("solve rejected", "req", run.reqID, "reason", "queue full")
		writeError(w, http.StatusServiceUnavailable, "queue full, retry later")
		return
	}
	rec := <-done
	writeJSON(w, http.StatusOK, SolveResponse{Schema: Schema, RequestID: run.reqID, Record: rec})
}

// writeJSON writes one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the canonical error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Schema: Schema, Error: msg})
}
