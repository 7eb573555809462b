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

// TestCleanRestartResumesFromSnapshot: a cleanly closed durable server
// leaves a final snapshot with a rotated (empty) journal, and a
// restarted server answers the whole campaign from it without
// executing anything.
func TestCleanRestartResumesFromSnapshot(t *testing.T) {
	spec := killReplaySpec()
	total := int64(len(spec.ShardRuns(0, 1)))
	dir := t.TempDir()

	srv, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir, SnapshotEvery: 4})
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
	if st.Journal.Snapshots == 0 {
		t.Errorf("snapshot-every=4 over %d runs wrote no snapshots", total)
	}
	done()
	_ = srv

	// Clean shutdown: final snapshot written, journal rotated away.
	snap, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || int64(len(snap.Records)) != total {
		t.Fatalf("final snapshot holds %d records, want %d", len(snap.Records), total)
	}
	if len(snap.CacheIndex) == 0 {
		t.Error("final snapshot carries no setup-cache index")
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Errorf("journal not rotated after the final snapshot (size %d, err %v)", fi.Size(), err)
	}

	// Restart: everything is a hit, nothing executes.
	_, cl2, done2 := newTestServer(t, Options{Workers: 4, JournalDir: dir, SnapshotEvery: 4})
	defer done2()
	recs, err := runCampaign(t, cl2, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != total || st2.Completed != 0 || st2.Journal.Hits != total {
		t.Errorf("snapshot resume: %d records, %d executed, %d hits — want %d, 0, %d",
			len(recs), st2.Completed, st2.Journal.Hits, total, total)
	}
}

// TestOlderJournalDirLoads: a journal directory written by a server
// that still had the /v1/campaign endpoint — a "campaign" line in the
// journal, a "campaigns" cursor map in the snapshot — loads, and every
// run it recorded (half in the snapshot, half in the journal) is
// answered from it: all journal hits, nothing executed, records
// identical to local execution.
func TestOlderJournalDirLoads(t *testing.T) {
	spec := killReplaySpec()
	jobs := spec.ShardRuns(0, 1)
	dir := t.TempDir()

	want := make(map[string]string)
	inSnap := make(map[string]campaign.Record)
	journal := `{"schema":"repro-journal/v1","kind":"campaign","digest":"0123456789abcdef","runs":16}` + "\n"
	for i, j := range jobs {
		req := NewSolveRequest(&spec, j.Cell, j.Rep)
		rec := campaign.ExecuteRun(&spec, j.Cell, j.Rep, nil)
		b, _ := json.Marshal(rec)
		want[rec.Key] = string(b)
		id, reqID := runIdentity(&req), RequestID(&req)
		if i%2 == 0 {
			inSnap[id] = rec
			continue
		}
		journal += journalLine(t, JournalEntry{Kind: "accept", ID: id, Req: reqID})
		journal += journalLine(t, JournalEntry{Kind: "run", ID: id, Req: reqID, Record: &rec})
	}
	snap, err := json.Marshal(map[string]any{
		"schema": SnapshotSchema, "records": inSnap,
		"campaigns": map[string]any{"0123456789abcdef": map[string]int{"runs": 16, "done": 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournalFile(t, dir, journal)

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
	if len(recs) != len(jobs) || st.Completed != 0 || st.Journal.Hits != int64(len(jobs)) {
		t.Errorf("older journal: %d records, %d executed, %d hits — want %d, 0, %d",
			len(recs), st.Completed, st.Journal.Hits, len(jobs), len(jobs))
	}
	for _, rec := range recs {
		if b, _ := json.Marshal(rec); want[rec.Key] != string(b) {
			t.Errorf("record %s differs from local execution", rec.Key)
		}
	}
}

// TestCorruptSnapshotRefusesToServe: a server must not boot into
// silent amnesia — an unreadable snapshot fails construction with the
// file named.
func TestCorruptSnapshotRefusesToServe(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{Workers: 1, JournalDir: dir})
	if err == nil || !strings.Contains(err.Error(), snapshotFile) {
		t.Fatalf("corrupt snapshot: got err %v, want one naming %s", err, snapshotFile)
	}
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
	if !c.Contains(kA, 0) || !c.Contains(kB, 0) {
		t.Fatal("two stores under a bound of two must both be resident")
	}
	// Freshen A, then insert C: B is now the least recently used.
	if c.Lookup(kA, 0) == nil {
		t.Fatal("lookup A missed")
	}
	c.Store(kC, 0, dummyArtifact())
	if c.Contains(kB, 0) {
		t.Error("B survived eviction despite being least recently used")
	}
	if !c.Contains(kA, 0) || !c.Contains(kC, 0) {
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
	if !c.Contains(kC, 0) || c.Contains(kA, 0) {
		t.Error("shrinking the bound did not keep the most recently used entry")
	}
	if got := len(c.Index()); got != 1 {
		t.Errorf("index reports %d entries, want 1", got)
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
	st := srvSmall.Cache().Stats()
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

// TestSnapshotWhileServingRace: snapshots (cadence 1 — every
// completion) racing live solves, stats, and metrics scrapes. Run
// under -race in CI; the assertions here are liveness and a final
// parseable snapshot.
func TestSnapshotWhileServingRace(t *testing.T) {
	dir := t.TempDir()
	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir, SnapshotEvery: 1})
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
	if st.Journal.Records != 8 || st.Journal.Snapshots == 0 {
		t.Errorf("records/snapshots = %d/%d, want 8/>0", st.Journal.Records, st.Journal.Snapshots)
	}
	snap, err := ReadSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("snapshot unreadable after racing writes: %v", err)
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

// TestConcurrentCampaignFeedersJournal: two identical campaigns driven
// concurrently through one durable server, each an engine posting its
// runs to /v1/solve — journal appends race across both feeders, and
// both must come back complete with records matching local execution.
// Run under -race in CI.
func TestConcurrentCampaignFeedersJournal(t *testing.T) {
	spec := killReplaySpec()
	total := len(spec.ShardRuns(0, 1))
	dir := t.TempDir()
	_, cl, done := newTestServer(t, Options{Workers: 4, JournalDir: dir, SnapshotEvery: 3})
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
}
