package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// TraceSelection decides which runs are traced and how: the parsed and
// checked form of the TraceDir, TraceRanks and TraceSample settings
// that the campaign engine and the solve service share. The zero value
// traces nothing.
type TraceSelection struct {
	// Dir is the directory traces are written to; empty turns tracing
	// off.
	Dir  string
	all  bool // every rank's phase spans, not only rank 0's
	k, n int  // the deterministic k-of-n run sample
}

// NewTraceSelection parses the trace settings once. ranks is "" or "0"
// for the default rank-0 span filter, or "all" to keep every rank's
// phase spans (what traceq's imbalance, wait-share and critical-path
// sections need). sample is "" or "1/1" to trace every run, or "k/n"
// for the deterministic k-of-n run sample with 0 <= k <= n and n >= 1.
// Lifting the rank filter or sampling without a directory is an error.
func NewTraceSelection(dir, ranks, sample string) (TraceSelection, error) {
	all, err := parseTraceRanks(ranks)
	if err != nil {
		return TraceSelection{}, err
	}
	k, n, err := parseTraceSample(sample)
	if err != nil {
		return TraceSelection{}, err
	}
	if dir == "" && (all || n > 1) {
		return TraceSelection{}, fmt.Errorf("campaign: trace ranks/sampling need a trace directory (TraceDir)")
	}
	return TraceSelection{Dir: dir, all: all, k: k, n: n}, nil
}

// Tracer returns the tracer for one (spec, cell, rep) run, or nil when
// tracing is off or the run is outside the sample.
func (t TraceSelection) Tracer(spec *Spec, cell Cell, rep int) *obs.RunTracer {
	if t.Dir == "" || !traceSampled(spec.Seed, cell.RunKey(rep), t.k, t.n) {
		return nil
	}
	tr := newRunTracer(spec, cell, rep)
	tr.AllRanks = t.all
	return tr
}

// newRunTracer builds the tracer for one (spec, cell, rep) run, keyed
// and seeded exactly as the run itself, so a trace file is
// self-identifying.
func newRunTracer(spec *Spec, cell Cell, rep int) *obs.RunTracer {
	return obs.NewRunTracer(cell.RunKey(rep), RunSeed(spec.Seed, cell.Index, rep))
}

// traceSampled reports whether the run identified by runKey belongs to
// the deterministic k-of-n trace sample of a campaign seeded with seed.
// The decision is a pure function of (seed, runKey) — an FNV-1a hash
// over the seed bytes and the key, reduced modulo n — so the sampled
// set is identical across reruns, shard layouts and worker counts, and
// covers k/n of the grid in expectation. It is how all-rank tracing
// over big grids bounds its disk footprint (`campaign -trace-sample`).
func traceSampled(seed uint64, runKey string, k, n int) bool {
	if n <= 1 || k >= n {
		return true
	}
	if k <= 0 {
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(runKey); i++ {
		h ^= uint64(runKey[i])
		h *= prime64
	}
	return h%uint64(n) < uint64(k)
}

// parseTraceSample parses a -trace-sample value (see
// NewTraceSelection).
func parseTraceSample(s string) (k, n int, err error) {
	if s == "" {
		return 1, 1, nil
	}
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("campaign: trace sample %q is not of the form k/n", s)
	}
	if k, err = strconv.Atoi(ks); err != nil {
		return 0, 0, fmt.Errorf("campaign: trace sample %q: bad k: %v", s, err)
	}
	if n, err = strconv.Atoi(ns); err != nil {
		return 0, 0, fmt.Errorf("campaign: trace sample %q: bad n: %v", s, err)
	}
	if n < 1 || k < 0 || k > n {
		return 0, 0, fmt.Errorf("campaign: trace sample %q needs 0 <= k <= n and n >= 1", s)
	}
	return k, n, nil
}

// parseTraceRanks parses a -trace-ranks value (see NewTraceSelection).
func parseTraceRanks(s string) (all bool, err error) {
	switch s {
	case "", "0":
		return false, nil
	case "all":
		return true, nil
	}
	return false, fmt.Errorf("campaign: trace ranks %q: want \"0\" or \"all\"", s)
}
