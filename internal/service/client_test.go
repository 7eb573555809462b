package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
)

// TestExecRetriesTransientFailures: the load-generator path must treat
// the server's 503 backpressure as "back off and retry", not as a
// permanent harness error — otherwise a submit outrunning the bounded
// pool records errors that -resume would skip forever.
func TestExecRetriesTransientFailures(t *testing.T) {
	spec := campaign.QuickSpec()
	cell := spec.Cells()[0]
	want := campaign.ExecuteRunEnv(&spec, cell, 0, nil)

	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, "queue full, retry later")
			return
		}
		writeJSON(w, http.StatusOK, SolveResponse{Schema: Schema, Record: want})
	}))
	defer ts.Close()

	cl := &Client{Base: ts.URL}
	got := cl.Exec(&spec, cell, 0)
	if got.Err != "" {
		t.Fatalf("Exec gave up on a transient 503: %q", got.Err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (two 503s then success)", calls.Load())
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("retried record differs from direct execution:\n%s\n%s", gb, wb)
	}
}

// TestExecRetriesBodyCutMidResponse: a connection dropped after the
// 200 headers but before the body completes (a server restart) is as
// transient as one refused outright — the retry loop must cover it.
func TestExecRetriesBodyCutMidResponse(t *testing.T) {
	spec := campaign.QuickSpec()
	cell := spec.Cells()[0]
	want := campaign.ExecuteRunEnv(&spec, cell, 0, nil)

	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // cut the connection mid-body
		}
		writeJSON(w, http.StatusOK, SolveResponse{Schema: Schema, Record: want})
	}))
	defer ts.Close()

	cl := &Client{Base: ts.URL}
	got := cl.Exec(&spec, cell, 0)
	if got.Err != "" {
		t.Fatalf("Exec gave up on a mid-body connection cut: %q", got.Err)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2 (one cut, one success)", calls.Load())
	}
}

// TestExecDoesNotRetryPermanentRejections: a schema-level 400 is not
// transient — retrying it would hammer the server with a request it
// has already refused.
func TestExecDoesNotRetryPermanentRejections(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, "schema mismatch")
	}))
	defer ts.Close()

	spec := campaign.QuickSpec()
	cell := spec.Cells()[0]
	cl := &Client{Base: ts.URL}
	got := cl.Exec(&spec, cell, 0)
	if got.Err == "" || !strings.Contains(got.Err, "schema mismatch") {
		t.Fatalf("permanent rejection not surfaced as a harness error: %+v", got)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls for a permanent 400, want exactly 1", calls.Load())
	}
	if got.Transient {
		t.Error("permanent 400 rejection marked transient — every -resume would re-submit and re-fail it forever")
	}
	// The error record keeps the run's full identity so aggregation
	// counts an errored replicate, not a missing one.
	if want := cell.RunKey(0); got.Key != want {
		t.Errorf("error record key %q, want %q", got.Key, want)
	}
	if got.Seed != campaign.RunSeed(spec.Seed, cell.Index, 0) {
		t.Errorf("error record seed %d does not derive from the spec", got.Seed)
	}
}
