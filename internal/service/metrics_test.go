package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestMetricsEndpointReconcilesWithStats pins the one property that
// makes two monitoring surfaces trustworthy: every counter /metrics
// exposes equals what /stats reports, because both sample the same
// underlying state at read time (ReconcileMetrics, which the smoke
// harness runs after a whole campaign too).
func TestMetricsEndpointReconcilesWithStats(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 2})
	defer done()

	for i := 0; i < 3; i++ {
		req := testRequest()
		req.Rep = i
		if _, err := cl.Solve(req); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ReconcileMetrics(cl, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Completed != 3 {
		t.Errorf("completed %d runs, want 3", rep.Stats.Completed)
	}
	// The per-endpoint counters in /stats are the same series.
	if n := rep.Series[`repro_http_requests_total{endpoint="solve"}`]; n != 3 || rep.Stats.Endpoints["solve"] != 3 {
		t.Errorf("solve requests: /metrics says %g, /stats says %d, want 3", n, rep.Stats.Endpoints["solve"])
	}

	// Scraping again with no work submitted moves no run counter.
	again, err := ReconcileMetrics(cl, "")
	if err != nil {
		t.Fatal(err)
	}
	if again.Series["repro_runs_completed_total"] != rep.Series["repro_runs_completed_total"] {
		t.Error("completed counter changed between scrapes with no work submitted")
	}
}

// TestNewRejectsTraceSettings: New refuses the trace settings the
// campaign engine refuses, including rank or sample settings without a
// trace directory.
func TestNewRejectsTraceSettings(t *testing.T) {
	dir := t.TempDir()
	for _, opts := range []Options{
		{TraceRanks: "all"}, {TraceSample: "1/2"},
		{TraceDir: dir, TraceRanks: "2"}, {TraceDir: dir, TraceSample: "3/2"},
	} {
		if srv, err := New(opts); err == nil {
			srv.Close()
			t.Errorf("New accepted trace settings %+v", opts)
		}
	}
}

// TestServerTraceDir: a server with a trace directory persists one
// repro-trace/v1 file per executed run, named by the request
// correlation ID plus the run key, and the traced record stays
// byte-identical to direct execution.
func TestServerTraceDir(t *testing.T) {
	dir := t.TempDir()
	_, cl, done := newTestServer(t, Options{Workers: 1, TraceDir: dir})
	defer done()

	req := testRequest()
	got, err := cl.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	spec, cell := req.SpecCell()
	want := campaign.ExecuteRun(&spec, cell, req.Rep, nil)
	if gb, wb := mustJSON(t, got), mustJSON(t, want); gb != wb {
		t.Errorf("traced served record differs from direct execution:\n%s\n%s", gb, wb)
	}

	path := filepath.Join(dir, TraceName(requestIDOf(&req), cell.RunKey(req.Rep)))
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("missing or malformed trace file: %v", err)
	}
	if tr.Key != cell.RunKey(req.Rep) || len(tr.Events) == 0 {
		t.Fatalf("trace key %q with %d events", tr.Key, len(tr.Events))
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSolveStreamingDiscardEvents: a streaming ftgmres solve under
// heavy bitflip corruption emits one "discard" SSE event per inner
// result the sanitisation consensus rejected — exactly as many as the
// final record reports.
func TestSolveStreamingDiscardEvents(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 2})
	defer done()

	req := SolveRequest{
		Schema: Schema, Solver: campaign.SolverFTGMRES, Precond: campaign.PrecondBJILU,
		Problem: campaign.ProblemConvDiff, Ranks: 2, Grid: 10,
		Fault: campaign.FaultSpec{Model: campaign.FaultBitflip, Rate: 5e-2},
		Seed:  11, Cell: 0, Rep: 0, Tol: 1e-8, MaxIter: 200,
		Stream: true,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := parseSSE(t, bufio.NewReader(resp.Body))
	if len(events) == 0 || events[len(events)-1].name != "result" {
		t.Fatalf("stream did not end in a result event (%d events)", len(events))
	}
	var final SolveResponse
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.Record.Discards == 0 {
		t.Fatalf("test cell produced no discards; pick a harsher fault rate (record %+v)", final.Record)
	}
	var discards []DiscardEvent
	for _, ev := range events[:len(events)-1] {
		switch ev.name {
		case "progress":
		case "discard":
			var d DiscardEvent
			if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
				t.Fatalf("discard payload %q: %v", ev.data, err)
			}
			discards = append(discards, d)
		default:
			t.Fatalf("unexpected event %q", ev.name)
		}
	}
	if len(discards) != final.Record.Discards {
		t.Errorf("streamed %d discard events, record reports %d discards", len(discards), final.Record.Discards)
	}
	for i, d := range discards {
		if d.Solve <= 0 {
			t.Errorf("discard %d has non-positive inner-solve ordinal: %+v", i, d)
		}
		if i > 0 && d.Solve <= discards[i-1].Solve {
			t.Errorf("discard ordinals out of order: %d after %d", d.Solve, discards[i-1].Solve)
		}
	}
}

// phaseRequests is a mix of n solves for the phase-histogram tests:
// clean PCG replicates, bitflip-corrupted FT-GMRES (inner discards)
// and rank-kill GMRES (global restarts).
func phaseRequests(n int) []SolveRequest {
	reqs := make([]SolveRequest, n)
	for i := range reqs {
		req := testRequest()
		req.Rep = i
		switch i % 3 {
		case 1:
			req.Solver, req.Precond, req.Problem = campaign.SolverFTGMRES, campaign.PrecondBJILU, campaign.ProblemConvDiff
			req.Fault = campaign.FaultSpec{Model: campaign.FaultBitflip, Rate: 5e-2}
		case 2:
			req.Solver, req.Precond = campaign.SolverGMRES, campaign.PrecondNone
			req.Fault = campaign.FaultSpec{Model: campaign.FaultRankKill, MTBF: 15}
			req.MaxRestarts = 8
		}
		reqs[i] = req
	}
	return reqs
}

// phaseSeries is the repro_phase_vseconds part of a scrape.
func phaseSeries(series map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range series {
		if strings.HasPrefix(k, "repro_phase_vseconds") {
			out[k] = v
		}
	}
	return out
}

// TestUntracedPhaseHistogramsMatchTraces: a server with no trace
// directory, whose plain solves run without any observer, still feeds
// repro_phase_vseconds one observation per phase span — the same
// spans, per phase, that a tracing server persists for the same
// requests (the reconciliation solverd smoke runs against traced
// servers). One request is streamed, so the SSE path is covered too.
func TestUntracedPhaseHistogramsMatchTraces(t *testing.T) {
	traceDir := t.TempDir()
	_, traced, doneTraced := newTestServer(t, Options{Workers: 2, TraceDir: traceDir, TraceRanks: "all"})
	defer doneTraced()
	_, plain, donePlain := newTestServer(t, Options{Workers: 2})
	defer donePlain()

	reqs := phaseRequests(6)
	restarts, discards := 0, 0
	for _, cl := range []*Client{traced, plain} {
		for i, req := range reqs {
			if i == 0 {
				req.Stream = true
				body, _ := json.Marshal(req)
				resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				events := parseSSE(t, bufio.NewReader(resp.Body))
				resp.Body.Close()
				if len(events) == 0 || events[len(events)-1].name != "result" {
					t.Fatal("streamed solve did not end in a result event")
				}
				continue
			}
			rec, err := cl.Solve(req)
			if err != nil {
				t.Fatal(err)
			}
			restarts += rec.Restarts
			discards += rec.Discards
		}
	}
	if restarts == 0 || discards == 0 {
		t.Fatalf("the mix had %d restarts and %d discards; it must exercise both", restarts, discards)
	}
	if _, err := ReconcileMetrics(traced, traceDir); err != nil {
		t.Fatalf("traced server: %v", err)
	}
	rep, err := ReconcileMetrics(plain, traceDir)
	if err != nil {
		t.Fatalf("untraced server against the traced server's traces: %v", err)
	}
	if rep.Traces != len(reqs) {
		t.Errorf("reconciled against %d traces, want one per request (%d)", rep.Traces, len(reqs))
	}
}

// TestPhaseHistogramsConcurrentSolves: clients posting at once to a
// 4-worker server, whose workers flush per-run tallies into the shared
// histograms concurrently, leave every repro_phase_vseconds bucket and
// count exactly where a serial run on one worker leaves them (the sums
// to float tolerance: the additions regroup).
func TestPhaseHistogramsConcurrentSolves(t *testing.T) {
	reqs := phaseRequests(12)
	scrape := func(workers, clients int) map[string]float64 {
		_, cl, done := newTestServer(t, Options{Workers: workers})
		defer done()
		var wg sync.WaitGroup
		errs := make(chan error, len(reqs))
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(reqs); i += clients {
					if _, err := cl.Solve(reqs[i]); err != nil {
						errs <- err
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		rep, err := ReconcileMetrics(cl, "")
		if err != nil {
			t.Fatal(err)
		}
		return phaseSeries(rep.Series)
	}
	serial, concurrent := scrape(1, 1), scrape(4, 6)
	if serial[fmt.Sprintf("repro_phase_vseconds_count{phase=%q}", obs.PhaseAllreduce)] == 0 {
		t.Fatal("the serial run staged no allreduce spans")
	}
	if len(concurrent) != len(serial) {
		t.Fatalf("%d phase series concurrently, %d serially", len(concurrent), len(serial))
	}
	for k, want := range serial {
		got := concurrent[k]
		if strings.Contains(k, "_sum{") {
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s: %g concurrently, %g serially", k, got, want)
			}
		} else if got != want {
			t.Errorf("%s: %g concurrently, %g serially", k, got, want)
		}
	}
}
