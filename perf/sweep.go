package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
)

// quickExpected is the watchdog's expected wall of one quick-spec run.
const quickExpected = time.Millisecond

// sweep is the campaign_sweep workload: the built-in quick spec, from
// spec to gated aggregate, on nproc workers. The spec and its seed (7)
// are fixed so every pass must reproduce CAMPAIGN_baseline.json; the
// benchmark seed therefore has nothing to vary here.
type sweep struct {
	spec     campaign.Spec
	runs     []campaign.RunRef
	dir      string
	baseline []byte
	passes   int
	refRuns  []refRun

	// lastBytes is the JSONL size of the most recent pass.
	lastBytes int64
}

// repoRoot walks up from the working directory to the module root, so
// the committed baseline is found from `go run ./perf` and `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("perf: no go.mod above the working directory")
		}
		dir = parent
	}
}

func newSweep(uint64) (*sweep, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	baseline, err := os.ReadFile(filepath.Join(root, "CAMPAIGN_baseline.json"))
	if err != nil {
		return nil, err
	}
	dir, err := subDir("sweep-*")
	if err != nil {
		return nil, err
	}
	spec := campaign.QuickSpec()
	return &sweep{spec: spec, runs: spec.ShardRuns(0, 1), dir: dir, baseline: baseline}, nil
}

func (s *sweep) close() { os.RemoveAll(s.dir) }

func (s *sweep) inputKeys() []string {
	keys := make([]string, len(s.runs))
	for i, r := range s.runs {
		keys[i] = r.Cell.RunKey(r.Rep)
	}
	return keys
}

func (s *sweep) refs() []refRun {
	if s.refRuns == nil {
		s.refRuns = references(&s.spec, s.runs, quickExpected)
	}
	return s.refRuns
}

func (s *sweep) replicaCell() (*campaign.Spec, campaign.Cell) {
	return &s.spec, quickReplicaCell(&s.spec)
}

// quickReplicaCell is the quick spec's gmres/bj-ilu/poisson/p4 clean
// cell, the replica's shape for the two quick-spec workloads.
func quickReplicaCell(spec *campaign.Spec) campaign.Cell {
	for _, c := range spec.Cells() {
		if c.Key() == "gmres/bj-ilu/poisson/p4/none" {
			return c
		}
	}
	panic("perf: quick spec lost its gmres/bj-ilu/poisson/p4/none cell")
}

// pass runs the spec once. With a nil tracer it is the end-to-end
// path a researcher runs: campaign.Run, AggregateFiles, BuildReport.
// With a tracer it drives the same pipeline from its public pieces so
// each stage gets a span.
func (s *sweep) pass(tr *tracer) (passStats, error) {
	s.passes++
	out := filepath.Join(s.dir, "pass.jsonl")
	var (
		agg     *campaign.Aggregate
		errored int
		err     error
	)
	op0 := s.passes * (len(s.runs) + 1)
	start := time.Now()
	root := tr.begin("campaign.pass", op0, 0)
	if tr == nil {
		var st campaign.RunStats
		if st, err = campaign.Run(campaign.Options{Spec: s.spec, Workers: nproc(), Out: out}); err != nil {
			return passStats{}, err
		}
		errored = st.Errored
		if agg, err = campaign.AggregateFiles(s.spec, "baseline", out); err != nil {
			return passStats{}, err
		}
	} else if agg, errored, err = s.pipeline(tr, root, op0, out); err != nil {
		return passStats{}, err
	}
	sp := tr.begin("campaign.report", op0, root)
	report := campaign.BuildReport(agg)
	tr.end(sp)
	tr.end(root)
	wall := time.Since(start)

	if fi, err := os.Stat(out); err == nil {
		s.lastBytes = fi.Size()
	}
	ps := passStats{ops: len(s.runs), failed: errored, wall: wall, lat: []float64{wall.Seconds() * 1e3}}
	got, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return passStats{}, err
	}
	if !bytes.Equal(append(got, '\n'), s.baseline) || len(report.Markdown) == 0 || len(report.CSV) == 0 {
		ps.failed = ps.ops // the whole pass is wrong, not one run of it
	}
	return ps, nil
}

// pipeline is the traced twin of campaign.Run + AggregateFiles:
// expand -> [execute{assemble} -> record_write]* -> read -> aggregate,
// on the same worker count.
func (s *sweep) pipeline(tr *tracer, root, op0 int, out string) (*campaign.Aggregate, int, error) {
	sp := tr.begin("campaign.expand", op0, root)
	runs := s.spec.ShardRuns(0, 1)
	tr.end(sp)

	w, err := campaign.NewWriter(out, false)
	if err != nil {
		return nil, 0, err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		errored  int
		writeErr error
	)
	next := make(chan int)
	for i := 0; i < nproc(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				op := op0 + 1 + i
				ex := tr.begin("campaign.execute", op, root)
				env := &campaign.ExecEnv{Problems: func(name string, grid int) (campaign.Problem, error) {
					as := tr.begin("problems.assemble", op, ex)
					defer tr.end(as)
					return campaign.BuildProblem(name, grid)
				}}
				rec := campaign.ExecuteRunEnv(&s.spec, runs[i].Cell, runs[i].Rep, env)
				tr.end(ex)
				ws := tr.begin("campaign.record_write", op, root)
				err := w.Write(rec)
				tr.end(ws)
				mu.Lock()
				if rec.Err != "" {
					errored++
				}
				if err != nil && writeErr == nil {
					writeErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := w.Close(); err != nil && writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		return nil, 0, writeErr
	}

	sp = tr.begin("campaign.read", op0, root)
	recs, err := campaign.ReadShardFile(out)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("campaign.aggregate", op0, root)
	agg, err := campaign.AggregateRecords(s.spec, "baseline", recs)
	tr.end(sp)
	return agg, errored, err
}
