package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens a socket and stalls cannot
// hold a connection (and its goroutine) forever. Request bodies are
// small and bounded separately (maxRequestBytes); responses stream for
// as long as a campaign runs, so no write or whole-request deadline is
// set.
const readHeaderTimeout = 10 * time.Second

// NewHTTPServer builds the http.Server the service is served through,
// by `solverd serve` and by the end-to-end harness below alike.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// liveServer is one in-process solverd behind a real loopback listener.
type liveServer struct {
	srv *Server
	hs  *http.Server
	cl  *Client
}

func startServer(opts Options) (*liveServer, error) {
	srv, err := New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := NewHTTPServer("", srv.Handler())
	go hs.Serve(ln)
	return &liveServer{srv: srv, hs: hs, cl: &Client{Base: "http://" + ln.Addr().String()}}, nil
}

func (ls *liveServer) stop() {
	ls.hs.Close()
	ls.srv.Close()
}

// runsPath and aggPath name the harness outputs; side is "direct" (the
// in-process oracle) or "served". CI uploads the aggregates, so a
// mismatch can be diffed from the artifacts.
func runsPath(outdir, label, side string) string {
	return filepath.Join(outdir, "campaign_"+label+"-"+side+".jsonl")
}

func aggPath(outdir, label, side string) string {
	return filepath.Join(outdir, "CAMPAIGN_"+label+"-"+side+".json")
}

// diffAgainstDirect requires the served run records to be
// byte-identical to the direct ones, record by record and as
// aggregates, and leaves both aggregates on disk.
func diffAgainstDirect(spec campaign.Spec, label, outdir string) error {
	var recs [2][]campaign.Record
	var aggs [2][]byte
	for i, side := range []string{"direct", "served"} {
		var err error
		if recs[i], err = campaign.ReadShardFile(runsPath(outdir, label, side)); err != nil {
			return err
		}
		agg, err := campaign.AggregateRecords(spec, label, recs[i])
		if err != nil {
			return err
		}
		if err := campaign.WriteAggregate(agg, aggPath(outdir, label, side)); err != nil {
			return err
		}
		if aggs[i], err = os.ReadFile(aggPath(outdir, label, side)); err != nil {
			return err
		}
	}
	if len(recs[1]) != len(recs[0]) {
		return fmt.Errorf("served %d records, direct %d", len(recs[1]), len(recs[0]))
	}
	direct := make(map[string]string, len(recs[0]))
	for _, rec := range recs[0] {
		b, _ := json.Marshal(rec)
		direct[rec.Key] = string(b)
	}
	for _, rec := range recs[1] {
		if b, _ := json.Marshal(rec); direct[rec.Key] != string(b) {
			return fmt.Errorf("run %s differs over the wire:\nserved %s\ndirect %s", rec.Key, b, direct[rec.Key])
		}
	}
	if !bytes.Equal(aggs[0], aggs[1]) {
		return fmt.Errorf("%s and %s differ", aggPath(outdir, label, "direct"), aggPath(outdir, label, "served"))
	}
	return nil
}

// Smoke is the service's end-to-end proof, run by `solverd smoke` in CI
// and by this package's tests: execute the campaign directly (the
// oracle) and as concurrent repro-solve/v1 requests against a loopback
// server — the campaign engine is the load generator — and require the
// served records and aggregate byte-identical to the direct ones, both
// caches hit under the repeated-cell traffic, and ReconcileMetrics to
// pass. The served pass traces every rank of every run: the byte diff
// against the untraced direct pass proves all-rank tracing never
// perturbs results. Outputs land in outdir, named by label.
func Smoke(spec campaign.Spec, label, outdir string, workers int) (*MetricsReport, error) {
	if _, err := campaign.Run(campaign.Options{Spec: spec, Workers: workers, Out: runsPath(outdir, label, "direct")}); err != nil {
		return nil, err
	}
	traceDir := filepath.Join(outdir, "traces-"+label)
	ls, err := startServer(Options{Workers: workers, TraceDir: traceDir, TraceRanks: "all"})
	if err != nil {
		return nil, err
	}
	defer ls.stop()
	if err := ls.cl.Healthz(); err != nil {
		return nil, err
	}
	st, err := campaign.Run(campaign.Options{Spec: spec, Workers: workers, Out: runsPath(outdir, label, "served"), Exec: ls.cl.Exec})
	if err != nil {
		return nil, err
	}
	if st.Errored > 0 {
		return nil, fmt.Errorf("smoke: %d of %d served runs errored", st.Errored, st.Executed)
	}
	if err := diffAgainstDirect(spec, label, outdir); err != nil {
		return nil, fmt.Errorf("smoke: %w — all-rank traced served execution is not byte-identical to untraced direct execution", err)
	}
	rep, err := ReconcileMetrics(ls.cl, traceDir)
	if err != nil {
		return nil, err
	}
	if runs := int64(spec.Coverage().Runs); rep.Stats.Completed != runs {
		return nil, fmt.Errorf("smoke: server completed %d runs, want %d", rep.Stats.Completed, runs)
	}
	if c := rep.Stats.Cache; c.SetupHits == 0 || c.ProblemHits == 0 {
		return nil, fmt.Errorf("smoke: a cache reported no hits under repeated-cell traffic: %+v", c)
	}
	return rep, nil
}

// MetricsReport is what ReconcileMetrics sampled and verified: the
// /stats sample, the /metrics scrape taken right after it, and the
// trace files and span phases the phase histograms were reconciled
// against (0 without a trace directory).
type MetricsReport struct {
	Stats          StatsResponse
	Series         map[string]float64
	Traces, Phases int
}

// ReconcileMetrics samples /stats, scrapes /metrics and requires the
// two monitoring surfaces of a quiescent server to agree: both read the
// same counters, so any disagreement is a wiring bug. traceDir, when
// non-empty, holds the all-rank traces of the same runs; the per-phase
// virtual-duration histograms must then reconcile with the spans the
// traces persisted.
func ReconcileMetrics(cl *Client, traceDir string) (*MetricsReport, error) {
	st, err := cl.Stats()
	if err != nil {
		return nil, err
	}
	resp, err := http.Get(cl.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("smoke: /metrics content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	series, err := obs.ParseText(body)
	if err != nil {
		return nil, fmt.Errorf("smoke: /metrics is not valid exposition text: %w", err)
	}
	for name, want := range map[string]int64{
		"repro_runs_received_total":        st.Received,
		"repro_runs_completed_total":       st.Completed,
		"repro_runs_errored_total":         st.Errored,
		"repro_runs_rejected_total":        st.Rejected,
		"repro_problem_cache_hits_total":   st.Cache.ProblemHits,
		"repro_problem_cache_misses_total": st.Cache.ProblemMisses,
		"repro_setup_cache_hits_total":     st.Cache.SetupHits,
		"repro_setup_cache_misses_total":   st.Cache.SetupMisses,
		"repro_pool_workers":               int64(st.Workers),
	} {
		if got, ok := series[name]; !ok || got != float64(want) {
			return nil, fmt.Errorf("smoke: %s is %g (present: %v) on /metrics but %d on /stats", name, got, ok, want)
		}
	}
	for name, v := range st.Endpoints {
		// /stats was read first and the two reads are themselves
		// requests, so the scrape may see more hits, never fewer.
		key := fmt.Sprintf("repro_http_requests_total{endpoint=%q}", name)
		if got, ok := series[key]; !ok || got < float64(v) {
			return nil, fmt.Errorf("smoke: endpoint %s: /stats says %d, /metrics says %g", name, v, got)
		}
	}
	for _, h := range []string{"repro_run_queue_wait_seconds", "repro_run_execute_seconds"} {
		for _, key := range []string{h + "_count", h + `_bucket{le="+Inf"}`} {
			if series[key] != float64(st.Completed) {
				return nil, fmt.Errorf("smoke: %s is %g, want one observation per completed run (%d)", key, series[key], st.Completed)
			}
		}
	}
	if series["repro_uptime_seconds"] <= 0 {
		return nil, fmt.Errorf("smoke: uptime gauge is not positive")
	}
	rep := &MetricsReport{Stats: st, Series: series}
	if traceDir != "" {
		if err := rep.reconcilePhases(traceDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// reconcilePhases checks repro_phase_vseconds against the all-rank
// traces of the same runs: every phase span a trace persisted is
// exactly one histogram observation (restart-recovery excluded — it is
// a harness-stream annotation, not a phase the solve spent time in).
// Counts must match exactly, sums to float tolerance (accumulation
// order differs across workers).
func (rep *MetricsReport) reconcilePhases(traceDir string) error {
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
			if ev.Name == obs.EventSpan && ev.Detail != obs.PhaseRestartRecovery {
				count[ev.Detail]++
				sum[ev.Detail] += ev.Dur
			}
		}
	}
	if count[obs.PhaseAllreduce] == 0 || count[obs.PhaseSpMV] == 0 {
		return fmt.Errorf("smoke: traces carry no allreduce/spmv spans — all-rank capture is not working")
	}
	for phase, n := range count {
		key := fmt.Sprintf("repro_phase_vseconds_count{phase=%q}", phase)
		if got := rep.Series[key]; got != float64(n) {
			return fmt.Errorf("smoke: %s is %g but the traces persisted %d %s spans", key, got, n, phase)
		}
		skey := fmt.Sprintf("repro_phase_vseconds_sum{phase=%q}", phase)
		got, want := rep.Series[skey], sum[phase]
		if diff := got - want; diff < -1e-9*want || diff > 1e-9*want {
			return fmt.Errorf("smoke: %s is %g but the traces sum to %g", skey, got, want)
		}
	}
	rep.Traces, rep.Phases = len(paths), len(count)
	return nil
}

// KillPoint is one seeded crash of the kill-and-replay harness: Mode
// "run" dies right after the Nth journaled completion, "journal" tears
// the Nth run's journal line in half, "stream" dies after N streamed
// campaign records.
type KillPoint struct {
	Mode string
	N    int
	// drive, when set, replaces the crash pass's campaign traffic and
	// fires the crash itself (the tests' mid-SSE kill point).
	drive func(cl *Client, cs *crashSink)
}

// ParseKillPoints parses a comma-separated kill-point list
// ("run:40,stream:3,journal:80").
func ParseKillPoints(s string) ([]KillPoint, error) {
	var kps []KillPoint
	for _, part := range strings.Split(s, ",") {
		mode, num, _ := strings.Cut(strings.TrimSpace(part), ":")
		n, err := strconv.Atoi(num)
		if err != nil || n < 1 || (mode != "run" && mode != "journal" && mode != "stream") {
			return nil, fmt.Errorf("%q is not run:N, journal:N or stream:N with N >= 1", part)
		}
		kps = append(kps, KillPoint{Mode: mode, N: n})
	}
	return kps, nil
}

// crashPass drives the campaign into a durable server and crashes it at
// the seeded kill point: the journal sink goes dead (a dead process
// journals nothing) and the listener and every connection are severed
// mid-whatever-was-happening. The journal directory is left exactly as
// a real crash would leave it — possibly with a torn trailing line.
func crashPass(spec campaign.Spec, dir string, workers, snapshotEvery int, kp KillPoint) error {
	inner, err := OpenJournal(dir, false)
	if err != nil {
		return err
	}
	cs := &crashSink{inner: inner}
	switch kp.Mode {
	case "run":
		cs.dieAfterRun = kp.N
	case "journal":
		cs.tearAtRun = kp.N
	}
	ls, err := startServer(Options{Workers: workers, JournalDir: dir, journalSink: cs, SnapshotEvery: snapshotEvery})
	if err != nil {
		inner.Close()
		return err
	}
	// The crash callback runs on whatever goroutine hit the kill point
	// (possibly a pool worker mid-append), so the teardown is
	// asynchronous — exactly like a process dying under the handler.
	cs.onCrash = func() { go ls.hs.Close() }

	if kp.drive != nil {
		kp.drive(ls.cl, cs)
	} else {
		streamed := 0
		// The severed stream is the expected outcome of a crash.
		_ = ls.cl.CampaignStream(CampaignRequest{Schema: Schema, Spec: spec}, func(campaign.Record) error {
			streamed++
			if kp.Mode == "stream" && streamed == kp.N {
				cs.kill()
			}
			return nil
		})
	}
	// Reap the pool. Runs completing after the crash hit the dead sink
	// and are journaled nowhere, exactly like work lost with a process.
	ls.stop()
	if !cs.crashed.Load() {
		return fmt.Errorf("kill-replay: kill point %s:%d never fired — is N larger than the campaign?", kp.Mode, kp.N)
	}
	return nil
}

// resumePass restarts a production-sink server over dir, streams the
// whole campaign through fn, and returns the stats it booted with and
// ended with.
func resumePass(spec campaign.Spec, dir string, workers, snapshotEvery int, fn func(campaign.Record) error) (before, after StatsResponse, err error) {
	ls, err := startServer(Options{Workers: workers, JournalDir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		return before, after, fmt.Errorf("kill-replay: restart failed: %w", err)
	}
	defer ls.stop()
	if before, err = ls.cl.Stats(); err != nil {
		return before, after, err
	}
	if before.Journal == nil || before.Journal.Records == 0 {
		return before, after, fmt.Errorf("kill-replay: restarted server loaded no journaled runs — the crash passes recorded nothing")
	}
	if err = ls.cl.CampaignStream(CampaignRequest{Schema: Schema, Spec: spec}, fn); err != nil {
		return before, after, fmt.Errorf("kill-replay: resumed campaign failed: %w", err)
	}
	after, err = ls.cl.Stats()
	return before, after, err
}

// KillReplayResult is KillReplay's verdict: the campaign's run count,
// the runs the crash passes left journaled, the journal hits and
// executed runs of the resumed pass (Hits == Recorded and Executed ==
// Total − Recorded, or KillReplay fails), and the state snapshots the
// resumed server wrote.
type KillReplayResult struct {
	Total, Recorded, Hits, Executed, Snapshots int64
}

// KillReplay is the kill-and-replay determinism harness, run by
// `solverd smoke -kill-at` in CI and by this package's tests: execute
// the campaign directly (the oracle), crash a durable server at each
// kill point in turn over the shared journal directory, then restart
// and stream the full campaign to completion. The resumed records and
// aggregate must be byte-identical to direct execution, every journaled
// run served as a journal hit, no recorded run re-executed, and a
// further restart must execute nothing at all. Outputs land in outdir,
// named by label.
func KillReplay(spec campaign.Spec, label, outdir, journalDir string, workers int, kills []KillPoint) (*KillReplayResult, error) {
	if _, err := campaign.Run(campaign.Options{Spec: spec, Workers: workers, Out: runsPath(outdir, label, "direct")}); err != nil {
		return nil, err
	}
	total := int64(len(spec.ShardRuns(0, 1)))
	// A cadence small against the campaign, so crash passes exercise
	// snapshot writes and journal rotation, not just raw journal replay.
	snapshotEvery := int(min(16, max(1, total/3)))
	for _, kp := range kills {
		if err := crashPass(spec, journalDir, workers, snapshotEvery, kp); err != nil {
			return nil, err
		}
	}

	w, err := campaign.NewWriter(runsPath(outdir, label, "served"), false)
	if err != nil {
		return nil, err
	}
	before, after, err := resumePass(spec, journalDir, workers, snapshotEvery, w.Write)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	recorded := before.Journal.Records
	if recorded >= total {
		return nil, fmt.Errorf("kill-replay: the crash passes recorded all %d runs — the kill points fired too late to test resume", total)
	}
	if len(kills) > 0 && kills[len(kills)-1].Mode == "journal" && !before.Journal.SealedTail {
		return nil, fmt.Errorf("kill-replay: the torn journal tail was not detected and sealed on restart")
	}
	if err := diffAgainstDirect(spec, label, outdir); err != nil {
		return nil, fmt.Errorf("kill-replay: %w — the resumed campaign is not byte-identical to direct execution", err)
	}
	if after.Journal.Hits != recorded {
		return nil, fmt.Errorf("kill-replay: %d journaled runs but %d journal hits — recorded runs were not all served from the journal", recorded, after.Journal.Hits)
	}
	if after.Completed != total-recorded {
		return nil, fmt.Errorf("kill-replay: %d runs executed on resume, want %d (total %d - %d recorded) — a recorded run was re-executed or lost", after.Completed, total-recorded, total, recorded)
	}

	var again int64
	_, full, err := resumePass(spec, journalDir, workers, snapshotEvery, func(campaign.Record) error { again++; return nil })
	if err != nil {
		return nil, err
	}
	if again != total || full.Completed != 0 || full.Journal.Hits != total {
		return nil, fmt.Errorf("kill-replay: fully-recorded campaign streamed %d records, executed %d, hit %d — want %d, 0, %d", again, full.Completed, full.Journal.Hits, total, total)
	}
	return &KillReplayResult{Total: total, Recorded: recorded, Hits: after.Journal.Hits, Executed: after.Completed, Snapshots: after.Journal.Snapshots}, nil
}
