package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// requestIDOf is the correlation ID the server gives req.
func requestIDOf(req *SolveRequest) string {
	_, cell := req.SpecCell()
	return requestID(runIdentity(req, cell))
}

// TestRequestIDDeterministic pins the correlation contract: the ID is
// a pure function of the run identity, so a replayed request carries
// the same ID, and requests for different runs carry different ones.
func TestRequestIDDeterministic(t *testing.T) {
	a := testRequest()
	b := testRequest()
	if requestIDOf(&a) != requestIDOf(&b) {
		t.Error("equal requests produced different IDs")
	}
	if !regexp.MustCompile(`^r-[0-9a-f]{16}$`).MatchString(requestIDOf(&a)) {
		t.Errorf("ID %q does not match r-<16 hex>", requestIDOf(&a))
	}
	b.Rep++
	if requestIDOf(&a) == requestIDOf(&b) {
		t.Error("different replicates share an ID")
	}
	// Stream is presentation, not identity: the same run streamed and
	// unary must correlate.
	c := testRequest()
	c.Stream = true
	if requestIDOf(&a) != requestIDOf(&c) {
		t.Error("streaming changed the request ID")
	}
}

// TestRequestCorrelationAcrossSurfaces is the acceptance pin for the
// correlation story: one streamed solve on a server with tracing,
// journaling and logging enabled, and the SAME request ID must appear
// on every SSE frame, in the trace file's name, on the journal's run
// entry, and in every req= log line.
func TestRequestCorrelationAcrossSurfaces(t *testing.T) {
	traceDir := t.TempDir()
	journalDir := t.TempDir()
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelDebug)
	_, cl, done := newTestServer(t, Options{
		Workers: 1, TraceDir: traceDir, JournalDir: journalDir, Logger: logger,
	})

	req := testRequest()
	req.Stream = true
	wantID := requestIDOf(&req)

	body, _ := json.Marshal(req)
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	// The result frame arrived, so the run append is on disk.
	jr, err := ReadJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	done()

	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	for _, ev := range events {
		if ev.id != wantID {
			t.Fatalf("SSE frame %q carries id %q, want %q", ev.name, ev.id, wantID)
		}
	}
	var final SolveResponse
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.RequestID != wantID {
		t.Errorf("result payload req %q, want %q", final.RequestID, wantID)
	}

	_, cell := req.SpecCell()
	tracePath := filepath.Join(traceDir, TraceName(wantID, cell.RunKey(req.Rep)))
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("trace file not named by request ID: %v", err)
	}

	if len(jr.Entries) == 0 {
		t.Fatal("journal holds no entries")
	}
	for _, e := range jr.Entries {
		if e.Kind != "run" || e.Req != wantID {
			t.Errorf("journal entry is a %s carrying req %q, want a run carrying %q", e.Kind, e.Req, wantID)
		}
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "req="+wantID) {
		t.Errorf("no log line carries req=%s:\n%s", wantID, logs)
	}
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		if strings.Contains(line, "req=r-") && !strings.Contains(line, "req="+wantID) {
			t.Errorf("log line carries a foreign request ID: %s", line)
		}
	}

	// The journal answers a replay under the same ID without
	// re-executing; its trace (from the original execution) and journal
	// entries already correlate.
	srv2, cl2, done2 := newTestServer(t, Options{Workers: 1, JournalDir: journalDir})
	defer done2()
	req.Stream = false // identity is unchanged; only the presentation
	rec, err := cl2.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key != cell.RunKey(req.Rep) {
		t.Errorf("replayed record key %q", rec.Key)
	}
	if got := srv2.Stats().Journal.Hits; got != 1 {
		t.Errorf("replay did not hit the journal (hits=%d)", got)
	}
}

// TestReadyzDrain pins the readiness satellite: /readyz flips to 503
// while draining, /healthz stays 200 (liveness is not readiness), and
// readiness returns when draining ends.
func TestReadyzDrain(t *testing.T) {
	srv, cl, done := newTestServer(t, Options{Workers: 1})
	defer done()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(cl.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, body := get("/readyz"); code != http.StatusOK || !bytes.Contains(body, []byte(`"ready":true`)) {
		t.Errorf("ready server: %d %s", code, body)
	}
	srv.SetDraining(true)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"draining":true`)) {
		t.Errorf("draining server: %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz %d while draining, want 200 (liveness is not readiness)", code)
	}
	srv.SetDraining(false)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("undrained server readyz %d", code)
	}
}

// TestBuildInfoExposed pins the build-identity satellite: the
// repro_build_info series on /metrics and the build field on /stats
// carry the same identity.
func TestBuildInfoExposed(t *testing.T) {
	srv, cl, done := newTestServer(t, Options{Workers: 1})
	defer done()

	bi := ReadBuildInfo()
	if bi.Version == "" {
		t.Fatal("ReadBuildInfo returned an empty version")
	}
	resp, err := http.Get(cl.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	series, err := obs.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for name, v := range series {
		if strings.HasPrefix(name, "repro_build_info{") {
			found = true
			if v != 1 {
				t.Errorf("%s = %g, want 1", name, v)
			}
			if !strings.Contains(name, `version="`+bi.Version+`"`) {
				t.Errorf("series %s does not carry version %q", name, bi.Version)
			}
		}
	}
	if !found {
		t.Error("no repro_build_info series on /metrics")
	}
	if st := srv.Stats(); st.Build != bi {
		t.Errorf("/stats build %+v, want %+v", st.Build, bi)
	}
}
