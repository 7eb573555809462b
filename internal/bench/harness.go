package bench

// This file is the benchmark harness behind cmd/benchdiff: it runs every
// registered experiment and every kernel micro-benchmark, collects
// wall-clock, allocation, virtual-time and communication metrics into a
// canonical BENCH_*.json report. compare.go gates two such reports under
// per-metric regression thresholds — the machinery that turns the
// paper's "overhead must be small" argument into a CI check.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
)

// SchemaVersion identifies the BENCH_*.json layout.
const SchemaVersion = "repro-bench/v1"

// HarnessOptions configures one harness run. Everything else follows
// from Quick: every experiment runs once at seed 1 on a GOMAXPROCS-wide
// pool (its ledger is deterministic and its wall-clock is not gated),
// and each kernel is timed for 1s, or 100ms in quick mode. To time a
// kernel at another benchtime, use `go test -bench BenchmarkKernels
// -benchtime D` at the repository root, which runs the same Kernels()
// bodies.
type HarnessOptions struct {
	Label       string    // report label; also names the output file
	Quick       bool      // trim scaling sweeps and shorten kernel timing
	Experiments []string  // subset of experiment IDs; nil = all
	SkipKernels bool      // experiments only
	Progress    io.Writer // optional per-item progress log
}

// harnessSeed is the experiment master seed of every harness run.
const harnessSeed = 1

// Result is one measured entry of a report.
type Result struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "experiment" or "kernel"

	NsPerOp     float64 `json:"ns_per_op"`
	Iters       int     `json:"iters"`                   // ops measured (kernels) or repetitions (experiments)
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"` // kernels only
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`  // kernels only

	// Experiment-only fields, from the table and the comm.Ledger.
	Rows        int     `json:"rows,omitempty"`
	Worlds      int     `json:"worlds,omitempty"`
	VirtualTime float64 `json:"virtual_time,omitempty"` // peak rank clock (s, deterministic)
	RankSeconds float64 `json:"rank_seconds,omitempty"` // total simulated rank-time (s)
	Sends       int     `json:"sends,omitempty"`
	Recvs       int     `json:"recvs,omitempty"`
	Collectives int     `json:"collectives,omitempty"`
	Flops       float64 `json:"flops,omitempty"`
}

// Report is the canonical content of a BENCH_*.json file.
type Report struct {
	Schema    string   `json:"schema"`
	Label     string   `json:"label"`
	GoVersion string   `json:"go_version"`
	Quick     bool     `json:"quick"`
	Repeat    int      `json:"repeat"`
	Seed      uint64   `json:"seed"`
	Results   []Result `json:"results"`
}

// Lookup returns the named result.
func (r *Report) Lookup(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// RunHarness executes the configured experiment suite (concurrently, one
// worker per experiment — every experiment owns isolated worlds) and the
// kernel micro-benchmarks (sequentially, for quiet wall-clock), and
// returns the assembled report.
func RunHarness(opts HarnessOptions) (*Report, error) {
	rep := &Report{
		Schema:    SchemaVersion,
		Label:     opts.Label,
		GoVersion: runtime.Version(),
		Quick:     opts.Quick,
		Repeat:    1,
		Seed:      harnessSeed,
	}
	progress := func(format string, args ...any) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, format+"\n", args...)
		}
	}

	ids := opts.Experiments
	if ids == nil {
		for _, e := range Experiments() {
			ids = append(ids, e.ID)
		}
	}
	results := make([]Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = runExperimentMetered(ids[i], opts.Quick)
				progress("experiment %-4s %12.0f ns/op  vt=%.3gs", ids[i], results[i].NsPerOp, results[i].VirtualTime)
			}
		}()
	}
	for i := range ids {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", ids[i], err)
		}
	}
	rep.Results = append(rep.Results, results...)

	if !opts.SkipKernels {
		benchTime := time.Second
		if opts.Quick {
			benchTime = 100 * time.Millisecond
		}
		for _, k := range Kernels() {
			res := measureKernel(k, benchTime)
			progress("kernel %-28s %12.1f ns/op  %6.3f allocs/op", k.Name, res.NsPerOp, res.AllocsPerOp)
			rep.Results = append(rep.Results, res)
		}
	}

	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Name < rep.Results[j].Name })
	return rep, nil
}

// runExperimentMetered runs one experiment once, recording its
// wall-clock and its (deterministic) ledger metrics.
func runExperimentMetered(id string, quick bool) (Result, error) {
	led := &comm.Ledger{}
	start := time.Now()
	table, err := RunMetered(id, RunCtx{Seed: harnessSeed, Quick: quick, Ledger: led})
	wall := float64(time.Since(start).Nanoseconds())
	if err != nil {
		return Result{}, err
	}
	if len(table.Rows) == 0 {
		return Result{}, fmt.Errorf("produced no rows")
	}
	snap := led.Snapshot()
	return Result{
		Name:        "exp/" + id,
		Kind:        "experiment",
		NsPerOp:     wall,
		Iters:       1,
		Rows:        len(table.Rows),
		Worlds:      snap.Worlds,
		VirtualTime: snap.MaxClock,
		RankSeconds: snap.RankSeconds,
		Sends:       snap.Stats.Sends,
		Recvs:       snap.Stats.Recvs,
		Collectives: snap.Stats.Collective,
		Flops:       snap.Stats.Flops,
	}, nil
}

// measureKernel times one kernel body: warm up, grow n until the run
// meets the time target, then measure ns/op and allocation counts over
// the final run via runtime.MemStats deltas.
func measureKernel(k Kernel, target time.Duration) Result {
	body, cleanup := k.Setup()
	defer cleanup()
	body(1) // warm-up: pools fill, caches settle

	n := 1
	var dt time.Duration
	for {
		start := time.Now()
		body(n)
		dt = time.Since(start)
		if dt >= target || n >= 1<<30 {
			break
		}
		// Aim 20% past the target to avoid asymptotic creep.
		grow := int(1.2 * float64(target) / float64(dt+1) * float64(n))
		if grow < 2*n {
			grow = 2 * n
		}
		n = grow
	}

	// Dedicated allocation pass (kept separate from timing so ReadMemStats
	// and GC don't pollute ns/op). The op count is FIXED, not derived
	// from the timing loop's n: per-solve setup allocations amortise as
	// C/ops, so a timing-dependent count would make allocs/op vary from
	// run to run and turn the absolute allocs gate flaky on kernels with
	// small constant setup cost.
	const an = 4096
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	body(an)
	runtime.ReadMemStats(&m1)

	return Result{
		Name:        k.Name,
		Kind:        "kernel",
		NsPerOp:     float64(dt.Nanoseconds()) / float64(n),
		Iters:       n,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(an),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(an),
	}
}

// WriteReport writes the canonical JSON encoding of rep to path.
func WriteReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport parses a BENCH_*.json file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, SchemaVersion)
	}
	return &rep, nil
}
