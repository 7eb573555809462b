package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/precond"
)

// runCampaign drives spec through the server the way `campaign -server`
// does — the campaign engine with Exec over /v1/solve — and reads back
// the records it wrote.
func runCampaign(t *testing.T, cl *Client, spec campaign.Spec) ([]campaign.Record, error) {
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	if _, err := campaign.Run(campaign.Options{Spec: spec, Workers: 4, Out: out, Exec: cl.Exec}); err != nil {
		return nil, err
	}
	return campaign.ReadShardFile(out)
}

// journalRuns counts the "run" entries of the journal inside dir.
func journalRuns(t *testing.T, dir string) int64 {
	t.Helper()
	jr, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs int64
	for _, e := range jr.Entries {
		if e.Kind == "run" {
			runs++
		}
	}
	return runs
}

// assertAllHits runs spec through a server restarted over dir and
// checks that every run is answered from durable state: all journal
// hits, nothing executed.
func assertAllHits(t *testing.T, dir string, spec campaign.Spec) []campaign.Record {
	t.Helper()
	total := int64(len(spec.ShardRuns(0, 1)))
	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir})
	defer done()
	recs, err := runCampaign(t, cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != total || st.Completed != 0 || st.Journal.Hits != total {
		t.Errorf("restart: %d records, %d executed, %d hits — want %d, 0, %d",
			len(recs), st.Completed, st.Journal.Hits, total, total)
	}
	return recs
}

// TestCleanRestartResumesFromJournal: a cleanly closed durable server
// leaves the journal — one "run" line per executed run — and no
// snapshot, and a restarted server answers the whole campaign from it
// without executing anything.
func TestCleanRestartResumesFromJournal(t *testing.T) {
	spec := killReplaySpec()
	total := int64(len(spec.ShardRuns(0, 1)))
	dir := t.TempDir()

	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir})
	if _, err := runCampaign(t, cl, spec); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil || st.Journal.Records != total {
		t.Fatalf("journal records = %+v, want %d", st.Journal, total)
	}
	done()

	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Errorf("clean shutdown left a snapshot (stat err %v)", err)
	}
	if runs := journalRuns(t, dir); runs != total {
		t.Errorf("journal holds %d run lines after a clean close, want %d", runs, total)
	}
	assertAllHits(t, dir, spec)
}

// TestCloseSyncsJournal: closing a durable server flushes the journal
// once and then releases it — the flush is what makes a clean shutdown
// durable when appends skip fsync — and writes nothing else: the
// directory holds the journal alone, with its one run line.
func TestCloseSyncsJournal(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	sink := &callSink{JournalSink: inner}
	d, err := newDurable(dir, false, sink)
	if err != nil {
		t.Fatal(err)
	}
	d.record("id", "req", *testRecord())
	d.close()
	if got := strings.Join(sink.calls, ","); got != "run,sync,close" {
		t.Errorf("sink calls %s, want run,sync,close", got)
	}
	if st := d.stats(); st.Appends != 1 || st.AppendErrors != 0 {
		t.Errorf("appends/errors = %d/%d, want 1/0", st.Appends, st.AppendErrors)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != journalFile {
		t.Errorf("directory after close holds %v (err %v), want only %s", ents, err, journalFile)
	}
	if runs := journalRuns(t, dir); runs != 1 {
		t.Errorf("journal holds %d run lines after close, want 1", runs)
	}
}

// TestOlderJournalDirLoads: a journal directory written by older
// servers — "campaign" and "accept" lines in the journal, and a
// snapshot.json with "campaigns" cursors and "pending" and
// "cache_index" lists — loads from its journal alone. The runs the
// journal recorded are journal hits; the runs only the snapshot held
// re-execute, once, to records identical to local execution, and are
// journaled. The snapshot is neither read nor rewritten, and a second
// restart answers every run from the journal.
func TestOlderJournalDirLoads(t *testing.T) {
	spec := killReplaySpec()
	jobs := spec.ShardRuns(0, 1)
	dir := t.TempDir()

	want := make(map[string]string)
	inSnap := make(map[string]campaign.Record)
	var inJournal []string
	journal := `{"schema":"repro-journal/v1","kind":"campaign","digest":"0123456789abcdef","runs":16}` + "\n"
	for i, j := range jobs {
		req := NewSolveRequest(&spec, j.Cell, j.Rep)
		rec := campaign.ExecuteRun(&spec, j.Cell, j.Rep, nil)
		b, _ := json.Marshal(rec)
		want[rec.Key] = string(b)
		_, cell := req.SpecCell()
		id := runIdentity(&req, cell)
		reqID := requestID(id)
		if i%2 == 0 {
			inSnap[id] = rec
			continue
		}
		inJournal = append(inJournal, id)
		journal += journalLine(t, JournalEntry{Kind: "accept", ID: id, Req: reqID})
		journal += journalLine(t, JournalEntry{Kind: "run", ID: id, Req: reqID, Record: &rec})
	}
	snap, err := json.Marshal(map[string]any{
		"schema": SnapshotSchema, "records": inSnap,
		"campaigns":   map[string]any{"0123456789abcdef": map[string]int{"runs": 16, "done": 8}},
		"pending":     inJournal[:2],
		"cache_index": []string{"poisson/g12/p2/jacobi#0", "poisson/g12/p2/jacobi#1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournalFile(t, dir, journal)

	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir})
	recs, err := runCampaign(t, cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	done()
	if len(recs) != len(jobs) || st.Completed != int64(len(inSnap)) || st.Journal.Hits != int64(len(inJournal)) {
		t.Errorf("older directory: %d records, %d executed, %d hits — want %d, %d (the snapshot's), %d (the journal's)",
			len(recs), st.Completed, st.Journal.Hits, len(jobs), len(inSnap), len(inJournal))
	}
	for _, rec := range recs {
		if b, _ := json.Marshal(rec); want[rec.Key] != string(b) {
			t.Errorf("record %s differs from local execution", rec.Key)
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err != nil || !bytes.Equal(got, snap) {
		t.Errorf("the older server's snapshot was rewritten (read err %v)", err)
	}
	if runs := journalRuns(t, dir); runs != int64(len(jobs)) {
		t.Errorf("journal holds %d run lines, want %d: the %d written and one per re-executed run", runs, len(jobs), len(inJournal))
	}
	assertAllHits(t, dir, spec)
}

// TestJournalHitStreamedSolve: a Stream=true request whose run is
// journaled gets the SSE envelope with exactly one result event, and
// the record is byte-identical to the executed one.
func TestJournalHitStreamedSolve(t *testing.T) {
	dir := t.TempDir()
	_, cl, done := newTestServer(t, Options{Workers: 2, JournalDir: dir})
	defer done()

	req := testRequest()
	executed, err := cl.Solve(req)
	if err != nil {
		t.Fatal(err)
	}

	req.Stream = true
	body, _ := json.Marshal(req)
	resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := parseSSE(t, bufio.NewReader(resp.Body))
	if len(events) != 1 || events[0].name != "result" {
		t.Fatalf("journal-hit stream produced %d events (first %q), want exactly one result", len(events), events[0].name)
	}
	var sr SolveResponse
	if err := json.Unmarshal([]byte(events[0].data), &sr); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(executed)
	got, _ := json.Marshal(sr.Record)
	if string(want) != string(got) {
		t.Errorf("journal-hit record differs from executed:\nhit      %s\nexecuted %s", got, want)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal.Hits != 1 || st.Completed != 1 {
		t.Errorf("hits/completed = %d/%d, want 1/1", st.Journal.Hits, st.Completed)
	}
}

// dummyArtifact builds a distinct non-nil artifact for LRU bookkeeping
// tests (the cache never inspects artifact internals).
func dummyArtifact() *precond.Artifact { return &precond.Artifact{} }

// resident reports whether rank 0's artifact for k is in c, without
// touching counters or LRU order.
func resident(c *Cache, k campaign.SetupKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.setups[setupEntryKey{SetupKey: k}]
	return ok
}

// TestCacheLRUEviction pins the eviction order: least-recently-used
// goes first, lookups freshen, duplicate stores freshen instead of
// reinserting, and shrinking the bound evicts immediately.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(2)
	kA := campaign.SetupKey{Problem: "poisson", Grid: 8, Ranks: 2, Precond: "jacobi"}
	kB := campaign.SetupKey{Problem: "poisson", Grid: 10, Ranks: 2, Precond: "jacobi"}
	kC := campaign.SetupKey{Problem: "convdiff", Grid: 8, Ranks: 2, Precond: "jacobi"}

	c.Store(kA, 0, dummyArtifact())
	c.Store(kB, 0, dummyArtifact())
	if !resident(c, kA) || !resident(c, kB) {
		t.Fatal("two stores under a bound of two must both be resident")
	}
	// Freshen A, then insert C: B is now the least recently used.
	if c.Lookup(kA, 0) == nil {
		t.Fatal("lookup A missed")
	}
	c.Store(kC, 0, dummyArtifact())
	if resident(c, kB) {
		t.Error("B survived eviction despite being least recently used")
	}
	if !resident(c, kA) || !resident(c, kC) {
		t.Error("freshened A or newly stored C was evicted instead of B")
	}
	if st := c.Stats(); st.SetupEvictions != 1 || st.SetupEntries != 2 {
		t.Errorf("evictions/entries = %d/%d, want 1/2", st.SetupEvictions, st.SetupEntries)
	}
	// A duplicate store freshens: C is stored again, so shrinking to
	// one must keep C and evict A.
	c.Store(kA, 0, dummyArtifact()) // freshen A (duplicate store)
	c.Store(kC, 0, dummyArtifact()) // freshen C — now most recent
	c.SetMaxEntries(1)
	if !resident(c, kC) || resident(c, kA) {
		t.Error("shrinking the bound did not keep the most recently used entry")
	}
	if got := c.Stats().SetupEntries; got != 1 {
		t.Errorf("%d entries resident, want 1", got)
	}
}

// TestEvictionRechargesSetupCost: a run whose setup artifact was
// evicted (forcing a fresh Setup) must stay byte-identical to the same
// run served from the cache (Adopt) and to direct execution — because
// Adopt charges the exact Setup virtual cost instead of zero.
func TestEvictionRechargesSetupCost(t *testing.T) {
	reqA := testRequest() // pcg/jacobi/poisson g8 — a Cacheable precond
	reqB := testRequest()
	reqB.Grid = 10 // different SetupKey, same everything else

	spec, cell := reqA.SpecCell()
	direct := campaign.ExecuteRun(&spec, cell, reqA.Rep, nil)
	want, _ := json.Marshal(direct)

	// Unbounded cache: second solve adopts the cached artifact.
	_, clBig, doneBig := newTestServer(t, Options{Workers: 1})
	defer doneBig()
	if _, err := clBig.Solve(reqA); err != nil {
		t.Fatal(err)
	}
	adopted, err := clBig.Solve(reqA)
	if err != nil {
		t.Fatal(err)
	}

	// One-entry cache: B between two As evicts A's artifacts, so the
	// third solve re-runs Setup where the unbounded server adopted.
	srvSmall, clSmall, doneSmall := newTestServer(t, Options{Workers: 1, CacheMaxEntries: 1})
	defer doneSmall()
	if _, err := clSmall.Solve(reqA); err != nil {
		t.Fatal(err)
	}
	if _, err := clSmall.Solve(reqB); err != nil {
		t.Fatal(err)
	}
	evictedThenRecomputed, err := clSmall.Solve(reqA)
	if err != nil {
		t.Fatal(err)
	}
	st := srvSmall.cache.Stats()
	if st.SetupEvictions == 0 {
		t.Fatalf("one-entry cache saw no evictions under two-key traffic: %+v", st)
	}
	if st.SetupEntries > 1 {
		t.Errorf("cache bound violated: %d entries resident", st.SetupEntries)
	}

	for name, rec := range map[string]campaign.Record{"adopted": adopted, "evicted-then-recomputed": evictedThenRecomputed} {
		got, _ := json.Marshal(rec)
		if string(got) != string(want) {
			t.Errorf("%s run differs from direct execution:\ngot    %s\ndirect %s", name, got, want)
		}
	}
}

// TestJournalWhileServingRace: journal appends racing live solves,
// stats, and metrics scrapes. Run under -race in CI; the assertions
// here are liveness and a journal that parses to one run line per
// solve.
func TestJournalWhileServingRace(t *testing.T) {
	dir := t.TempDir()
	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir})
	defer done()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			req := testRequest()
			req.Rep = rep
			if _, err := cl.Solve(req); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := cl.Stats(); err != nil {
					t.Error(err)
				}
				if resp, err := http.Get(cl.Base + "/metrics"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal.Records != 8 {
		t.Errorf("records = %d, want 8", st.Journal.Records)
	}
	if runs := journalRuns(t, dir); runs != 8 {
		t.Errorf("journal parses to %d run entries after racing writes, want 8", runs)
	}
}

// TestEvictionWhileAdoptRace: concurrent solves over two setup keys
// through a one-entry cache — every lookup/adopt races an eviction.
// Run under -race in CI; byte-identity of each record against direct
// execution is the assertion.
func TestEvictionWhileAdoptRace(t *testing.T) {
	_, cl, done := newTestServer(t, Options{Workers: 4, CacheMaxEntries: 1})
	defer done()

	reqs := []SolveRequest{testRequest(), testRequest()}
	reqs[1].Grid = 10
	want := make([]string, len(reqs))
	for i, req := range reqs {
		spec, cell := req.SpecCell()
		b, _ := json.Marshal(campaign.ExecuteRun(&spec, cell, req.Rep, nil))
		want[i] = string(b)
	}

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := reqs[i%2]
			rec, err := cl.Solve(req)
			if err != nil {
				t.Error(err)
				return
			}
			got, _ := json.Marshal(rec)
			if string(got) != want[i%2] {
				t.Errorf("racing solve %d diverged from direct execution", i)
			}
		}(i)
	}
	wg.Wait()
}

// callSink is a journal sink that logs every call made on it, in
// order: an Append as the kind of the line appended, then "sync" and
// "close".
type callSink struct {
	JournalSink
	mu    sync.Mutex
	calls []string
}

func (c *callSink) log(call string) {
	c.mu.Lock()
	c.calls = append(c.calls, call)
	c.mu.Unlock()
}

func (c *callSink) Append(line []byte) error {
	var e JournalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		e.Kind = "unparseable"
	}
	c.log(e.Kind)
	return c.JournalSink.Append(line)
}

func (c *callSink) Sync() error {
	c.log("sync")
	return c.JournalSink.Sync()
}

func (c *callSink) Close() error {
	c.log("close")
	return c.JournalSink.Close()
}

// TestConcurrentCampaignFeedersJournal: two identical campaigns driven
// concurrently through one durable server, each an engine posting its
// runs to /v1/solve — journal appends race across both feeders, and
// both must come back complete with records matching local execution.
// The journal takes one "run" line per executed run and nothing else.
// Run under -race in CI.
func TestConcurrentCampaignFeedersJournal(t *testing.T) {
	spec := killReplaySpec()
	total := len(spec.ShardRuns(0, 1))
	dir := t.TempDir()
	inner, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	sink := &callSink{JournalSink: inner}
	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir, journalSink: sink})
	defer done()

	want := make(map[string]string)
	for _, cell := range spec.Cells() {
		for rep := 0; rep < spec.Replicates; rep++ {
			rec := campaign.ExecuteRun(&spec, cell, rep, nil)
			b, _ := json.Marshal(rec)
			want[rec.Key] = string(b)
		}
	}

	results := make([][]campaign.Record, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs, err := runCampaign(t, cl, spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = recs
		}(i)
	}
	wg.Wait()

	for i, recs := range results {
		if len(recs) != total {
			t.Fatalf("feeder %d streamed %d records, want %d", i, len(recs), total)
		}
		for _, rec := range recs {
			b, _ := json.Marshal(rec)
			if want[rec.Key] != string(b) {
				t.Errorf("feeder %d: record %s differs from local execution", i, rec.Key)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal.Records != int64(total) {
		t.Errorf("journal holds %d identities after two identical campaigns, want %d (identity-deduplicated)", st.Journal.Records, total)
	}
	if st.Completed+st.Journal.Hits != int64(2*total) {
		t.Errorf("executed (%d) + journal hits (%d) != %d answered runs", st.Completed, st.Journal.Hits, 2*total)
	}
	if st.Journal.Appends != st.Completed {
		t.Errorf("%d journal appends for %d executed runs, want one line per run", st.Journal.Appends, st.Completed)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	runs := 0
	for _, c := range sink.calls {
		if c == "run" {
			runs++
		}
	}
	if runs != len(sink.calls) || int64(runs) != st.Completed {
		t.Errorf("sink calls %v, want only %d run appends", sink.calls, st.Completed)
	}
}
