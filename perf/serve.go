package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/service"
)

// The serve_mix request mix, per round: every quick-spec identity is
// requested once (serveStreamed of them over SSE), and serveRepeats
// already-answered identities are requested again, which the journal
// answers without executing.
const (
	serveStreamed = 94
	serveRepeats  = 234
	// repeatGap is how many first requests separate a repeat from its
	// original. With nproc closed-loop clients at most nproc requests
	// are in flight, so the original has long been journaled.
	repeatGap = 64
)

type reqClass int

const (
	classExec reqClass = iota
	classSSE
	classHit
)

var classNames = [...]string{"exec", "sse", "hit"}

type serveReq struct {
	ref   int // index into the reference runs
	class reqClass
}

// serve is the serve_mix workload: each pass is one round against a
// fresh journaled server behind a loopback httptest listener, drained
// by nproc closed-loop clients (solverd's real callers each wait for a
// reply before sending the next request).
type serve struct {
	spec    campaign.Spec
	runs    []campaign.RunRef
	refRuns []refRun
	list    []serveReq
	dir     string
	opSeq   atomic.Int64

	// hooks let the layer probes use a round's live server and the
	// journal directory it leaves behind.
	live   func(base string, hc *http.Client)
	closed func(journalDir string)
	// last is what the most recent round's server reported.
	last struct {
		stats   service.StatsResponse
		metrics map[string]float64
	}
}

func newServe(seed uint64) (*serve, error) {
	dir, err := subDir("serve-*")
	if err != nil {
		return nil, err
	}
	spec := campaign.QuickSpec()
	runs := spec.ShardRuns(0, 1)
	return &serve{spec: spec, runs: runs, dir: dir, refRuns: references(&spec, runs, quickExpected), list: serveList(seed, len(runs))}, nil
}

// serveList generates one round's request list from the seed: the
// order stream shuffles first requests, the stream stream picks which
// of them use SSE, the repeat stream picks the repeated identities and
// where each repeat lands (at least repeatGap first requests later).
func serveList(seed uint64, n int) []serveReq {
	firsts := stream(seed, "order").Perm(n)
	sse := make(map[int]bool, serveStreamed)
	for _, i := range stream(seed, "stream").Perm(n)[:serveStreamed] {
		sse[i] = true
	}
	rep := stream(seed, "repeat")
	after := make(map[int][]int, serveRepeats) // position of a first request -> identities repeated right after it
	for _, pos := range rep.Perm(n - repeatGap)[:serveRepeats] {
		at := pos + repeatGap + rep.IntN(n-pos-repeatGap)
		after[at] = append(after[at], firsts[pos])
	}
	list := make([]serveReq, 0, n+serveRepeats)
	for pos, id := range firsts {
		class := classExec
		if sse[id] {
			class = classSSE
		}
		list = append(list, serveReq{ref: id, class: class})
		for _, r := range after[pos] {
			list = append(list, serveReq{ref: r, class: classHit})
		}
	}
	return list
}

func (s *serve) close() { os.RemoveAll(s.dir) }

func (s *serve) inputKeys() []string {
	keys := make([]string, len(s.list))
	for i, r := range s.list {
		keys[i] = classNames[r.class] + " " + s.runs[r.ref].Cell.RunKey(s.runs[r.ref].Rep)
	}
	return keys
}

func (s *serve) refs() []refRun { return s.refRuns }

func (s *serve) replicaCell() (*campaign.Spec, campaign.Cell) {
	return &s.spec, quickReplicaCell(&s.spec)
}

func (s *serve) pass(tr *tracer) (passStats, error) {
	jdir, err := os.MkdirTemp(s.dir, "journal-*")
	if err != nil {
		return passStats{}, err
	}
	defer os.RemoveAll(jdir)
	srv, err := service.New(service.Options{Workers: nproc(), JournalDir: jdir, JournalFsync: false})
	if err != nil {
		return passStats{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	hc := ts.Client()
	cl := &service.Client{Base: ts.URL, HTTP: hc}

	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Int64
		lat    = make([]float64, len(s.list))
	)
	start := time.Now()
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.list) {
					return
				}
				r := s.list[i]
				ref := &s.refRuns[r.ref]
				req := service.NewSolveRequest(&s.spec, ref.cell, ref.rep)
				req.Stream = r.class == classSSE
				var (
					rec campaign.Record
					err error
				)
				t := time.Now()
				if tr == nil && !req.Stream {
					rec, err = cl.Solve(req)
				} else {
					rec, err = rawSolve(hc, ts.URL, req, tr, int(s.opSeq.Add(1)), r.class)
				}
				lat[i] = time.Since(t).Seconds() * 1e3
				// A non-2xx is a failed op, never retried: retries
				// would turn refusals into latency.
				if err != nil || !bytes.Equal(mustJSON(rec), ref.json) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	ps := passStats{ops: len(s.list), failed: int(failed.Load()), wall: wall, lat: lat}
	stats, statsErr := cl.Stats()
	if statsErr == nil && tr != nil {
		if resp, err := hc.Get(ts.URL + "/metrics"); err == nil {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			s.last.metrics, _ = obs.ParseText(data)
		}
	}
	s.last.stats = stats
	if s.live != nil {
		s.live(ts.URL, hc)
	}
	ts.Close()
	srv.Close()
	if s.closed != nil {
		s.closed(jdir)
	}
	if statsErr != nil {
		return ps, statsErr
	}
	// The mix must be what it claims: nothing refused, and exactly the
	// planned repeats answered from the journal.
	if stats.Rejected != 0 || stats.Journal == nil || stats.Journal.Hits != serveRepeats {
		ps.failed = ps.ops
	}
	return ps, nil
}

// rawSolve is the benchmark's own /v1/solve client: Client.Solve
// cannot read an SSE reply, and the traced run needs a span around
// each of encode, round trip and decode.
func rawSolve(hc *http.Client, base string, req service.SolveRequest, tr *tracer, op int, class reqClass) (campaign.Record, error) {
	root := tr.begin("service.request", op, 0)
	defer tr.end(root)

	sp := tr.begin("service.encode", op, root)
	body, err := json.Marshal(req)
	tr.end(sp)
	if err != nil {
		return campaign.Record{}, err
	}

	sp = tr.begin("service.rtt."+classNames[class], op, root)
	resp, err := hc.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(sp)
	if err != nil {
		return campaign.Record{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return campaign.Record{}, fmt.Errorf("perf: /v1/solve: %s", resp.Status)
	}

	sp = tr.begin("service.decode", op, root)
	defer tr.end(sp)
	if req.Stream {
		// The result is the last frame; earlier ones are progress.
		const marker = "event: result\ndata: "
		i := bytes.LastIndex(data, []byte(marker))
		if i < 0 {
			return campaign.Record{}, fmt.Errorf("perf: SSE reply carries no result event")
		}
		data = data[i+len(marker):]
		if j := bytes.IndexByte(data, '\n'); j >= 0 {
			data = data[:j]
		}
	}
	var out service.SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return campaign.Record{}, err
	}
	if out.Schema != service.Schema {
		return campaign.Record{}, fmt.Errorf("perf: response schema %q", out.Schema)
	}
	return out.Record, nil
}
