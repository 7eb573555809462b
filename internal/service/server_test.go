package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// testRequest is a fast, converging solve the endpoint tests share.
func testRequest() SolveRequest {
	return SolveRequest{
		Schema: Schema, Solver: campaign.SolverPCG, Precond: campaign.PrecondJacobi,
		Problem: campaign.ProblemPoisson, Ranks: 2, Grid: 8,
		Fault: campaign.FaultSpec{Model: campaign.FaultNone},
		Seed:  7, Cell: 3, Rep: 1, Tol: 1e-6, MaxIter: 200,
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	cl := &Client{Base: ts.URL}
	return srv, cl, func() {
		ts.Close()
		srv.Close()
	}
}

// TestSolveEndpointMatchesDirectExecution: the same (spec, cell, rep)
// solved over HTTP and in-process must produce byte-identical records.
func TestSolveEndpointMatchesDirectExecution(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 2})
	defer done()

	req := testRequest()
	got, err := cl.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	spec, cell := req.SpecCell()
	want := campaign.ExecuteRunEnv(&spec, cell, req.Rep, nil)
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("served record differs from direct execution:\nserved %s\ndirect %s", gb, wb)
	}
	if !got.Converged {
		t.Errorf("test solve did not converge: %+v", got)
	}
}

// TestStrictValidation: the schema gate rejects malformed, mistagged
// and mathematically incompatible requests with 400, before any work
// is scheduled.
func TestStrictValidation(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 1})
	defer done()

	post := func(body string) (int, string) {
		resp, err := http.Post(cl.Base+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	valid, _ := json.Marshal(testRequest())
	cases := []struct {
		name, body, wantErr string
	}{
		{"wrong schema", strings.Replace(string(valid), Schema, "repro-solve/v0", 1), "is not"},
		{"unknown field", strings.Replace(string(valid), `"solver"`, `"sover"`, 1), "unknown field"},
		{"trailing garbage", string(valid) + `{"x":1}`, "trailing data"},
		{"unknown solver", strings.Replace(string(valid), `"pcg"`, `"sor"`, 1), "unknown solver"},
		{"incompatible cell", strings.Replace(string(valid), `"jacobi"`, `"bj-ilu"`, 1), "not symmetric"},
		{"not json", "hello", "invalid request body"},
	}
	for _, tc := range cases {
		status, msg := post(tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
		if !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, msg, tc.wantErr)
		}
	}
}

// TestHealthzAndStats: the health endpoint answers ok and /stats
// reflects completed work and per-solver counts.
func TestHealthzAndStats(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 2})
	defer done()

	if err := cl.Healthz(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Solve(testRequest()); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != Schema {
		t.Errorf("stats schema %q", st.Schema)
	}
	if st.Received != 1 || st.Completed != 1 {
		t.Errorf("received/completed = %d/%d, want 1/1", st.Received, st.Completed)
	}
	if st.PerSolver[campaign.SolverPCG] != 1 {
		t.Errorf("per-solver pcg = %d, want 1", st.PerSolver[campaign.SolverPCG])
	}
	if st.Cache.ProblemMisses == 0 {
		t.Errorf("problem cache saw no traffic: %+v", st.Cache)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id   string
	name string
	data string
}

// parseSSEOne reads one Server-Sent Event off the stream (nil once the
// stream ends).
func parseSSEOne(t *testing.T, r *bufio.Reader) *sseEvent {
	t.Helper()
	var cur sseEvent
	for {
		line, err := r.ReadString('\n')
		if len(line) > 0 {
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if cur.name != "" {
					return &cur
				}
				cur = sseEvent{}
			}
		}
		if err != nil {
			return nil
		}
	}
}

// parseSSE reads every event until the stream ends.
func parseSSE(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	for ev := parseSSEOne(t, r); ev != nil; ev = parseSSEOne(t, r) {
		events = append(events, *ev)
	}
	return events
}

// TestSolveStreaming: a stream=true solve emits per-iteration progress
// events in iteration order and a final result event whose record is
// byte-identical to direct execution.
func TestSolveStreaming(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 2})
	defer done()

	req := testRequest()
	req.Stream = true
	body, _ := json.Marshal(req)
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	events := parseSSE(t, bufio.NewReader(resp.Body))
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least one progress and one result", len(events))
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("last event is %q, want result", last.name)
	}
	progress := events[:len(events)-1]
	if len(progress) == 0 {
		t.Fatal("no progress events before the result")
	}
	prevIter := -1
	for _, ev := range progress {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before the result", ev.name)
		}
		var p ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress payload %q: %v", ev.data, err)
		}
		if p.Attempt != 0 {
			t.Errorf("attempt %d on a fault-free solve", p.Attempt)
		}
		if p.Iter <= prevIter {
			t.Errorf("iterations out of order: %d after %d", p.Iter, prevIter)
		}
		prevIter = p.Iter
	}

	var final SolveResponse
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	spec, cell := req.SpecCell()
	want := campaign.ExecuteRunEnv(&spec, cell, req.Rep, nil)
	gb, _ := json.Marshal(final.Record)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("streamed record differs from direct execution:\n%s\n%s", gb, wb)
	}
	if got, want := len(progress), want.Iters+1; got != want {
		// One progress event per iteration of the single attempt,
		// including the pre-loop residual check at iteration 0.
		t.Logf("note: %d progress events for %d iterations (events may be dropped under a slow consumer)", got, want)
	}
}

// TestStreamedProgressSurvivesDivergence: when a bit-flipped GMRES blows
// up, its residual goes NaN/Inf — values JSON cannot carry. The run's
// event stream clamps them to the -1 sentinel the record uses, so the
// SSE stream keeps delivering progress frames through exactly the
// iterations a client most wants to see instead of silently skipping
// them.
func TestStreamedProgressSurvivesDivergence(t *testing.T) {
	spec := campaign.QuickSpec()
	var req SolveRequest
	for _, cell := range spec.Cells() {
		if cell.Key() == "gmres/jacobi/aniso/p2/bitflip@0.001" {
			req = NewSolveRequest(&spec, cell, 1)
		}
	}
	cspec, cell := req.SpecCell()
	direct := campaign.ExecuteRunEnv(&cspec, cell, req.Rep, nil)
	if direct.Relres != -1 {
		t.Fatalf("fixture run no longer diverges (relres %g); pick another cell", direct.Relres)
	}

	_, cl, done := newTestServer(t, Options{Workers: 1})
	defer done()
	req.Stream = true
	body, _ := json.Marshal(req)
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, sentinels := 0, 0
	for _, ev := range parseSSE(t, bufio.NewReader(resp.Body)) {
		if ev.name != "progress" {
			continue
		}
		var p ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress payload %q: %v", ev.data, err)
		}
		frames++
		if p.Relres == -1 {
			sentinels++
		}
	}
	// The stream buffer (4096) exceeds the run's iteration count, so
	// nothing is dropped for slowness: every iteration has its frame.
	if frames != direct.Iters {
		t.Errorf("%d progress frames for %d iterations: diverged iterations vanished from the stream", frames, direct.Iters)
	}
	if sentinels == 0 {
		t.Error("no progress frame carries relres -1 for a run whose residual went non-finite")
	}
}

// TestQueueFullRejects: with the single worker wedged and the
// one-slot queue full, a non-streaming solve is rejected with 503 and
// counted, instead of queueing without bound.
func TestQueueFullRejects(t *testing.T) {
	srv, cl, done := newTestServer(t, Options{Workers: 1, Queue: 1})
	defer done()

	block := make(chan struct{})
	started := make(chan struct{})
	if !srv.pool.submit(func() { close(started); <-block }) {
		t.Fatal("could not submit the wedge job")
	}
	<-started
	if !srv.pool.submit(func() {}) {
		t.Fatal("could not fill the queue slot")
	}

	body, _ := json.Marshal(testRequest())
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	close(block)
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestOversizedBodyRejected: a body past maxRequestBytes is refused
// with 400 at the transport, before decoding.
func TestOversizedBodyRejected(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 1})
	defer done()

	huge := append([]byte(`{"schema":"x","pad":"`), bytes.Repeat([]byte("a"), maxRequestBytes+1024)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

// TestCloseDrains: Close must wait for queued and running jobs — the
// graceful-shutdown contract.
func TestCloseDrains(t *testing.T) {
	srv, err := New(Options{Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	ran := 0
	srv.pool.submit(func() { close(started); <-release; ran++ })
	srv.pool.submit(func() { ran++ })
	<-started

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the jobs drained")
	}
	if ran != 2 {
		t.Errorf("drained %d jobs, want 2 (queued jobs must run, not be dropped)", ran)
	}
	if srv.pool.submit(func() {}) {
		t.Error("pool accepted work after Close")
	}
}

// TestHTTPServerBoundsHeaderReads: the server every mode serves through
// must time out a connection that stalls before finishing its request
// headers, and must not put a deadline on responses — SSE streams run
// for as long as the solves do.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	hs := NewHTTPServer(":0", http.NotFoundHandler())
	if readHeaderTimeout <= 0 || hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want the positive constant %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("streaming responses need no write/read deadline, got write %v read %v", hs.WriteTimeout, hs.ReadTimeout)
	}
}
