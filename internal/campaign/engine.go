package campaign

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Options configures one engine invocation.
type Options struct {
	Spec Spec
	// Shard and Shards select cells with Index % Shards == Shard, so n
	// CI jobs running shards 0/n … (n-1)/n cover the grid exactly once.
	Shard, Shards int
	// Workers sizes the run pool (default GOMAXPROCS). Every run owns
	// isolated worlds and an independent seed, so concurrency never
	// affects results.
	Workers int
	// Out is the JSONL path results stream to.
	Out string
	// Resume keeps Out's existing records and skips their run keys —
	// restarting a killed campaign finishes only the missing runs.
	Resume bool
	// Ledger, when non-nil, aggregates communication activity over
	// every world of every run (campaign-wide totals).
	Ledger *comm.Ledger
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// TraceDir, when non-empty, records every executed run's event
	// timeline (repro-trace/v1, see internal/obs) and writes it to
	// TraceDir as one JSONL file per run, named after the run key.
	// Tracing requires local execution: combining it with Exec is a
	// configuration error, because a remote executor's events are not
	// observable here.
	TraceDir string
	// TraceChrome additionally writes each trace in Chrome trace-event
	// format (a .chrome.json sibling) for timeline viewers.
	TraceChrome bool
	// TraceRanks selects which ranks' phase spans land in the traces:
	// "" or "0" keep the classic rank-0 filter, "all" keeps every rank
	// (see obs.RunTracer.AllRanks). Requires TraceDir.
	TraceRanks string
	// TraceSample deterministically samples which runs are traced:
	// "k/n" traces the runs whose seeded run-key hash falls in k of n
	// residue classes ("" or "1/1" traces every run — see
	// NewTraceSelection). The sampled set is identical across reruns,
	// shards and worker counts. Requires TraceDir.
	TraceSample string
	// Exec, when non-nil, replaces local ExecuteRunEnv for every run —
	// the remote-execution hook: `campaign -server` sets it to POST
	// each run to a solve service, turning this engine into a
	// distributed load generator whose JSONL and aggregate outputs
	// stay byte-identical to local execution (runs are deterministic
	// functions of (spec, cell, rep), wherever they execute). The
	// Ledger is not threaded through Exec: a remote executor simulates
	// in its own process.
	Exec func(spec *Spec, cell Cell, rep int) Record
}

// RunStats summarises one engine invocation.
type RunStats struct {
	Cells    int // runnable cells in this shard
	Planned  int // runs this shard owns
	Resumed  int // runs skipped because already recorded
	Executed int // runs executed now
	Errored  int // executed runs that recorded an Err
	Traced   int // executed runs the trace selection traced
}

// Run executes the spec's shard on a bounded worker pool, streaming
// records to opts.Out as runs complete. Results are independent of
// worker count, shard layout and completion order: every run's
// randomness comes only from RunSeed(spec.Seed, cell, rep).
func Run(opts Options) (RunStats, error) {
	var st RunStats
	spec := opts.Spec
	if err := spec.Validate(); err != nil {
		return st, err
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Shard < 0 || opts.Shard >= opts.Shards {
		return st, fmt.Errorf("campaign: shard %d/%d out of range", opts.Shard, opts.Shards)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Out == "" {
		return st, fmt.Errorf("campaign: engine needs an output path")
	}
	if opts.TraceDir != "" && opts.Exec != nil {
		return st, fmt.Errorf("campaign: tracing requires local execution (TraceDir is incompatible with Exec)")
	}
	trace, err := NewTraceSelection(opts.TraceDir, opts.TraceRanks, opts.TraceSample)
	if err != nil {
		return st, err
	}

	var done map[string]bool
	if opts.Resume {
		var err error
		if done, err = ReadKeys(opts.Out); err != nil {
			return st, err
		}
	}

	var jobs []RunRef
	lastCell := -1
	for _, ref := range spec.ShardRuns(opts.Shard, opts.Shards) {
		st.Planned++
		if ref.Cell.Index != lastCell { // ShardRuns is cell-major
			st.Cells++
			lastCell = ref.Cell.Index
		}
		if done[ref.Cell.RunKey(ref.Rep)] {
			st.Resumed++
			continue
		}
		jobs = append(jobs, ref)
	}

	w, err := NewWriter(opts.Out, opts.Resume)
	if err != nil {
		return st, err
	}
	defer w.Close()

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		writeErr error
		// Every run of the invocation shares assembled problems and their
		// layouts. Not the preconditioner setup cache: its hit/miss events
		// would make a trace depend on which worker got there first.
		problems ProblemMemo
	)
	work := make(chan RunRef)
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				// Fail fast once a record write has failed: executing
				// the rest of a large campaign whose results cannot be
				// persisted would burn hours for nothing.
				mu.Lock()
				dead := writeErr != nil
				mu.Unlock()
				if dead {
					continue
				}
				var rec Record
				var tr *obs.RunTracer
				if opts.Exec != nil {
					rec = opts.Exec(&spec, j.Cell, j.Rep)
				} else {
					env := &ExecEnv{Ledger: opts.Ledger, Problems: problems.Problem}
					tr = trace.Tracer(&spec, j.Cell, j.Rep)
					if tr != nil {
						env.Events = tr.Observe
					}
					rec = ExecuteRunEnv(&spec, j.Cell, j.Rep, env)
					if _, err := WriteRunTrace(trace.Dir, tr, opts.TraceChrome); err != nil {
						mu.Lock()
						if writeErr == nil {
							writeErr = err
						}
						mu.Unlock()
					}
				}
				mu.Lock()
				st.Executed++
				if rec.Err != "" {
					st.Errored++
				}
				if tr != nil {
					st.Traced++
				}
				if err := w.Write(rec); err != nil && writeErr == nil {
					writeErr = err
				}
				mu.Unlock()
				if opts.Progress != nil {
					fmt.Fprintf(opts.Progress, "run %-44s conv=%-5v iters=%-4d vt=%.3gs restarts=%d\n",
						rec.Key, rec.Converged, rec.Iters, rec.VTime, rec.Restarts)
				}
			}
		}()
	}
	for _, j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
	if writeErr != nil {
		return st, writeErr
	}
	return st, nil
}
