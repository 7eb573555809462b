package service

import (
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// initMetrics builds the server's metric surface over one obs.Registry.
// Everything /stats reports is either exposed directly (request and
// trace counters live in obs and are read back by /stats) or bridged
// with CounterFunc/GaugeFunc sampling the authoritative state at scrape
// time — so /metrics and /stats can never disagree: both read the same
// counters, never copies.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.registry = r

	s.queueWait = r.Histogram("repro_run_queue_wait_seconds",
		"Wall-clock seconds a run waited in the pool queue before a worker picked it up.",
		obs.LatencyBuckets())
	s.execSec = r.Histogram("repro_run_execute_seconds",
		"Wall-clock seconds a run spent executing on a worker.",
		obs.LatencyBuckets())
	s.traceErrors = r.Counter("repro_trace_write_errors_total",
		"Run traces that could not be persisted to the trace directory.")

	// Per-phase virtual-duration histograms, fed from each run's event
	// stream (see phaseTallies): every rank's spans of every executed
	// run, in virtual seconds, whether or not tracing is on, merged in
	// when the run completes.
	// Restart-recovery is excluded — it re-labels lost work rather than
	// timing a phase.
	s.phaseSec = make(map[string]*obs.Histogram)
	for _, p := range obs.Phases() {
		if p == obs.PhaseRestartRecovery {
			continue
		}
		s.phaseSec[p] = r.Histogram("repro_phase_vseconds",
			"Virtual seconds per phase span across all ranks of executed runs, labelled by phase.",
			phaseBuckets(), obs.Label{Key: "phase", Value: p})
	}

	r.GaugeFunc("repro_pool_workers",
		"Fixed worker count of the solve pool.",
		func() float64 { return float64(s.workers) })
	r.GaugeFunc("repro_pool_queue_depth",
		"Runs currently queued and waiting for a worker.",
		func() float64 { return float64(s.pool.depth()) })
	r.GaugeFunc("repro_pool_in_flight",
		"Runs currently executing on workers.",
		func() float64 { return float64(s.pool.running()) })
	r.GaugeFunc("repro_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// The run counters live under s.mu; sampling them at exposition
	// time keeps /metrics exactly equal to /stats at every scrape.
	sample := func(p *int64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(*p)
		}
	}
	r.CounterFunc("repro_runs_received_total",
		"Runs accepted for execution.", sample(&s.received))
	r.CounterFunc("repro_runs_completed_total",
		"Runs finished (converged or not).", sample(&s.completed))
	r.CounterFunc("repro_runs_errored_total",
		"Completed runs whose record carries a harness error.", sample(&s.errored))
	r.CounterFunc("repro_runs_rejected_total",
		"Runs refused by a full queue (503 backpressure).", sample(&s.rejected))

	cacheStat := func(pick func(CacheStats) int64) func() float64 {
		return func() float64 { return float64(pick(s.cache.Stats())) }
	}
	r.CounterFunc("repro_problem_cache_hits_total",
		"Problem assemblies served from the cache.",
		cacheStat(func(cs CacheStats) int64 { return cs.ProblemHits }))
	r.CounterFunc("repro_problem_cache_misses_total",
		"Problem assemblies built fresh.",
		cacheStat(func(cs CacheStats) int64 { return cs.ProblemMisses }))
	r.CounterFunc("repro_setup_cache_hits_total",
		"Preconditioner setups adopted from the cache.",
		cacheStat(func(cs CacheStats) int64 { return cs.SetupHits }))
	r.CounterFunc("repro_setup_cache_misses_total",
		"Preconditioner setups factorised fresh.",
		cacheStat(func(cs CacheStats) int64 { return cs.SetupMisses }))
	r.CounterFunc("repro_setup_cache_evictions_total",
		"Preconditioner setup artifacts dropped by the LRU size bound.",
		cacheStat(func(cs CacheStats) int64 { return cs.SetupEvictions }))
	r.GaugeFunc("repro_setup_cache_entries",
		"Preconditioner setup artifacts currently resident (per-rank slots).",
		cacheStat(func(cs CacheStats) int64 { return cs.SetupEntries }))

	// Durability counters: sampled from the journal layer at scrape
	// time (all zero while the server runs without -journal-dir), so
	// /metrics reconciles exactly with the /stats journal block.
	journalStat := func(pick func(JournalStats) int64) func() float64 {
		return func() float64 {
			if s.durable == nil {
				return 0
			}
			return float64(pick(s.durable.stats()))
		}
	}
	r.GaugeFunc("repro_journal_records",
		"Run identities with a journaled result, servable without re-execution.",
		journalStat(func(js JournalStats) int64 { return js.Records }))
	r.CounterFunc("repro_journal_hits_total",
		"Requests answered from the run journal instead of executing.",
		journalStat(func(js JournalStats) int64 { return js.Hits }))
	r.CounterFunc("repro_journal_appends_total",
		"Journal lines written.",
		journalStat(func(js JournalStats) int64 { return js.Appends }))
	r.CounterFunc("repro_journal_append_errors_total",
		"Journal writes the sink refused (each one is a run that will re-execute after a restart).",
		journalStat(func(js JournalStats) int64 { return js.AppendErrors }))
	r.CounterFunc("repro_snapshot_writes_total",
		"State snapshots written (each rotates the journal it captured).",
		journalStat(func(js JournalStats) int64 { return js.Snapshots }))
	r.GaugeFunc("repro_journal_bytes",
		"Bytes appended to the journal since its last rotation — the compaction signal on long campaigns.",
		journalStat(func(js JournalStats) int64 { return js.Bytes }))
	r.GaugeFunc("repro_snapshot_bytes",
		"Size of the last state snapshot written, in bytes.",
		journalStat(func(js JournalStats) int64 { return js.SnapshotBytes }))

	// Build identity: the Prometheus info-metric idiom — constant 1,
	// with the identity in the labels, so a dashboard joins any series
	// against the version that produced it.
	bi := ReadBuildInfo()
	r.GaugeFunc("repro_build_info",
		"Build identity of the running binary (constant 1; the value is in the labels).",
		func() float64 { return 1 },
		obs.Label{Key: "version", Value: bi.Version},
		obs.Label{Key: "revision", Value: bi.Revision})
}

// phaseBuckets is the bucket layout of repro_phase_vseconds: phase
// spans run from sub-microsecond collectives to multi-second
// preconditioner setups in virtual time, so the buckets are decades
// with a 1-2.5-5 split around the common span lengths.
func phaseBuckets() []float64 {
	return []float64{1e-7, 1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// phaseTallies stages one run's samples for repro_phase_vseconds: a
// run emits a span per phase per rank per iteration, and two workers
// observing each one straight into the shared histograms spend their
// time trading cache lines. A run's tallies live on the worker that
// executes it and reach the histograms in one flush when it completes.
type phaseTallies map[string]*obs.Tally

// newPhaseTallies returns an empty tally per phase histogram.
func (s *Server) newPhaseTallies() phaseTallies {
	t := make(phaseTallies, len(s.phaseSec))
	for p, h := range s.phaseSec {
		t[p] = h.Tally()
	}
	return t
}

// observe is the run's event sink: one staged sample per phase span,
// in virtual seconds.
func (t phaseTallies) observe(ev obs.Event) {
	if ev.Name == obs.EventSpan {
		t[ev.Detail].Observe(ev.Dur)
	}
}

// flush merges the run's samples into the server's histograms.
func (t phaseTallies) flush() {
	for _, tally := range t {
		tally.Flush()
	}
}

// BuildInfo is the binary's build identity, surfaced on /metrics as
// repro_build_info and on /stats as the build field.
type BuildInfo struct {
	// Version is the main module's version ("(devel)" for a plain
	// go build / go test binary).
	Version string `json:"version"`
	// Revision is the VCS revision the binary was built from, empty
	// when the build carried no VCS stamp (module cache, vendored).
	Revision string `json:"revision,omitempty"`
}

// ReadBuildInfo samples the running binary's build identity from the
// runtime's embedded build information. It never fails: a binary
// without build info (unusual outside tests) reports version
// "unknown".
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{Version: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.Main.Version != "" {
		bi.Version = info.Main.Version
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Revision = s.Value
		}
	}
	return bi
}

// route registers one endpoint on the mux behind a request counter, so
// repro_http_requests_total{endpoint="..."} counts every request the
// handler sees (including rejected ones) and /stats mirrors the same
// counters in its endpoints map.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	c := s.registry.Counter("repro_http_requests_total",
		"HTTP requests received, by endpoint.",
		obs.Label{Key: "endpoint", Value: endpoint})
	s.endpoints[endpoint] = c
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	})
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format — the canonical scrape surface (GET /stats carries the same
// counters as JSON for humans and the client).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.registry.WritePrometheus(w)
}
