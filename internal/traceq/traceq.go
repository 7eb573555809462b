// Package traceq is the trace-analytics layer over repro-trace/v1: it
// loads directories of per-run trace files (campaign -trace output, CI
// artifacts) and reduces their span timelines into the phase
// attribution the paper's resilience argument turns on — where virtual
// time actually goes (SpMV, halo exchange, all-reduces, orthogonalise,
// preconditioner, sanitisation), how much a global restart throws away,
// and which inner solves FT-GMRES discards. Like campaign reports, the
// outputs are pure functions of their inputs: byte-identical across
// reruns, load orders and worker counts.
package traceq

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// PhaseUnattributed is the synthetic phase name for virtual time not
// covered by any span: scalar recurrences, axpy updates outside the
// instrumented loops, and anything else the catalogue does not name.
const PhaseUnattributed = "unattributed"

// AttributionPhases returns the phase order of every attribution table:
// the compute phases of the obs catalogue (restart-recovery excluded —
// it overlaps lost compute spans by construction and is reported
// separately) followed by PhaseUnattributed.
func AttributionPhases() []string {
	var out []string
	for _, p := range obs.Phases() {
		if p != obs.PhaseRestartRecovery {
			out = append(out, p)
		}
	}
	return append(out, PhaseUnattributed)
}

// RunPhases is one run's reduction: exclusive virtual seconds per
// compute phase (nested spans attribute only their own time), the
// run's total virtual time, its recovery spans and discard ordinals.
type RunPhases struct {
	// Key is the run key from the trace header.
	Key string
	// Cell is Key without the trailing /r<rep> segment.
	Cell string
	// Solver is the first segment of the key.
	Solver string
	// VTime is the run's total virtual time (the run_end stamp).
	VTime float64
	// Seconds maps each attribution phase (see AttributionPhases) to
	// its exclusive virtual seconds; every phase is present, zero when
	// the run never entered it.
	Seconds map[string]float64
	// Recoveries holds the duration of each restart-recovery span: the
	// virtual time each global restart threw away.
	Recoveries []float64
	// Discards holds the inner-solve ordinal of each discard event.
	Discards []int
	// Ranks is the run's world size, parsed from the cell key's p<N>
	// segment (0 when the key carries none).
	Ranks int
	// SpanRanks counts the distinct ranks that emitted phase spans:
	// equal to Ranks for all-rank traces (campaign -trace-ranks all),
	// 1 for classic rank-0 traces, 0 for span-free traces.
	SpanRanks int
	// RankSeconds maps each span-emitting rank to its exclusive virtual
	// seconds per phase — the per-rank view Seconds averages.
	RankSeconds map[int]map[string]float64
	// RankWait maps each span-emitting rank to its total wait: the
	// virtual seconds its spans report blocked behind the slowest
	// participant of a collective or a late halo message.
	RankWait map[int]float64
	// CritPath maps each phase to its virtual seconds on the run's
	// critical path — computed for all-rank traces only (see the
	// criticalPath reduction), nil otherwise.
	CritPath map[string]float64
}

// AllRank reports whether the run's trace carries phase spans from
// every rank of a multi-rank world — the precondition for the
// load-imbalance, wait-share and critical-path analytics.
func (r *RunPhases) AllRank() bool { return r.Ranks > 1 && r.SpanRanks >= r.Ranks }

// WaitShare returns rank's wait as a fraction of the run's virtual
// time (0 when the run recorded no time — never NaN).
func (r *RunPhases) WaitShare(rank int) float64 {
	if r.VTime <= 0 {
		return 0
	}
	return r.RankWait[rank] / r.VTime
}

// ImbalanceIndex returns the phase's load-imbalance index across the
// run's ranks: max over ranks of exclusive seconds divided by the mean
// (1 = perfectly balanced, ranks/1 = one rank does everything). Runs
// that never entered the phase return 0, not NaN, so span-free and
// idle phases stay reportable.
func (r *RunPhases) ImbalanceIndex(phase string) float64 {
	if r.SpanRanks == 0 {
		return 0
	}
	// Sum in sorted rank order: float addition is order-sensitive, and
	// the index must be byte-stable across processes (map iteration is
	// not).
	ranks := make([]int, 0, len(r.RankSeconds))
	for rank := range r.RankSeconds {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	max, sum := 0.0, 0.0
	for _, rank := range ranks {
		v := r.RankSeconds[rank][phase]
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 {
		return 0
	}
	return max / (sum / float64(r.SpanRanks))
}

// CritTotal returns the total virtual seconds on the run's critical
// path (0 when the run has no critical-path reduction).
func (r *RunPhases) CritTotal() float64 {
	// Sorted phase order for the same reason as ImbalanceIndex: the sum
	// must not depend on map iteration order.
	phases := make([]string, 0, len(r.CritPath))
	for p := range r.CritPath {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	total := 0.0
	for _, p := range phases {
		total += r.CritPath[p]
	}
	return total
}

// CritShare returns phase's fraction of the run's critical-path time
// (0 when there is no critical path — never NaN).
func (r *RunPhases) CritShare(phase string) float64 {
	total := r.CritTotal()
	if total <= 0 {
		return 0
	}
	return r.CritPath[phase] / total
}

// Share returns phase's fraction of the run's virtual time (0 when the
// run recorded no time).
func (r *RunPhases) Share(phase string) float64 {
	if r.VTime <= 0 {
		return 0
	}
	return r.Seconds[phase] / r.VTime
}

// span is one interval being swept.
type span struct {
	start, end float64
	phase      string
	wait       float64
	attempt    int
}

// exclusiveSweep reduces one rank's spans to per-span exclusive time.
// Spans from a single rank are properly nested or disjoint (each rank
// runs one goroutine; a span closes before its opener's caller closes),
// so a stack sweep attributes each child's duration to the child alone;
// visit receives each span with its exclusive seconds, in pop order.
func exclusiveSweep(spans []span, visit func(s span, excl float64)) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	type frame struct {
		span
		child float64
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		excl := (f.end - f.start) - f.child
		if excl < 0 {
			excl = 0
		}
		visit(f.span, excl)
	}
	for _, s := range spans {
		for len(stack) > 0 && s.start >= stack[len(stack)-1].end {
			pop()
		}
		if len(stack) > 0 {
			stack[len(stack)-1].child += s.end - s.start
		}
		stack = append(stack, frame{span: s})
	}
	for len(stack) > 0 {
		pop()
	}
}

// exclusiveByPhase reduces one rank's spans to exclusive time per phase.
func exclusiveByPhase(spans []span, into map[string]float64) {
	exclusiveSweep(spans, func(s span, excl float64) { into[s.phase] += excl })
}

// cellRanks parses the world size out of a run or cell key — the p<N>
// segment of solver/precond/problem/p<ranks>/fault — returning 0 when
// no segment matches.
func cellRanks(key string) int {
	for _, seg := range strings.Split(key, "/") {
		if len(seg) < 2 || seg[0] != 'p' {
			continue
		}
		if n, err := strconv.Atoi(seg[1:]); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// AnalyzeTrace reduces one parsed trace to its RunPhases.
func AnalyzeTrace(tr *obs.Trace) *RunPhases {
	rp := &RunPhases{
		Key: tr.Key, Cell: tr.Key, Seconds: make(map[string]float64),
		Ranks:       cellRanks(tr.Key),
		RankSeconds: make(map[int]map[string]float64),
		RankWait:    make(map[int]float64),
	}
	if i := strings.LastIndex(tr.Key, "/"); i >= 0 {
		rp.Cell = tr.Key[:i]
	}
	if solver, _, ok := strings.Cut(tr.Key, "/"); ok {
		rp.Solver = solver
	}
	byRank := make(map[int][]span)
	for _, ev := range tr.Events {
		switch ev.Name {
		case "run_end":
			rp.VTime = ev.T
		case "discard":
			rp.Discards = append(rp.Discards, ev.Iter)
		case obs.EventSpan:
			if ev.Detail == obs.PhaseRestartRecovery {
				rp.Recoveries = append(rp.Recoveries, ev.Dur)
				continue
			}
			byRank[ev.Rank] = append(byRank[ev.Rank], span{
				start: ev.T, end: ev.T + ev.Dur, phase: ev.Detail,
				wait: ev.Wait, attempt: ev.Attempt,
			})
		}
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	rp.SpanRanks = len(ranks)
	for _, r := range ranks {
		secs := make(map[string]float64)
		exclusiveByPhase(byRank[r], secs)
		rp.RankSeconds[r] = secs
		for _, s := range byRank[r] {
			rp.RankWait[r] += s.wait
		}
	}
	// Seconds is the mean across span-emitting ranks, so one run's
	// attribution stays comparable whether its trace kept one rank
	// (exactly that rank's seconds — the historical behaviour) or all
	// of them.
	if n := float64(len(ranks)); n > 0 {
		for _, r := range ranks {
			for p, v := range rp.RankSeconds[r] {
				rp.Seconds[p] += v / n
			}
		}
	}
	if rp.AllRank() {
		rp.CritPath = criticalPath(byRank, ranks)
	}
	// Fill the catalogue and derive the unattributed remainder, clamped
	// at zero: under rank-kill a survivor's last lost-attempt span can
	// spill past the charged death time by up to one operation.
	total := 0.0
	for _, p := range AttributionPhases() {
		if p == PhaseUnattributed {
			continue
		}
		total += rp.Seconds[p]
		if _, ok := rp.Seconds[p]; !ok {
			rp.Seconds[p] = 0
		}
	}
	rest := rp.VTime - total
	if rest < 0 {
		rest = 0
	}
	rp.Seconds[PhaseUnattributed] = rest
	return rp
}

// criticalPath charges each phase the virtual seconds it contributes
// to the run's critical path. The reduction segments each attempt's
// timeline at its collective synchronisation points — every rank of a
// world leaves an allreduce at the same completion stamp, so the
// distinct allreduce-span end times are global barriers — and charges
// each segment to its slowest rank: the one that arrived at the
// closing collective last, i.e. with the minimum wait on the closing
// allreduce span (ties to the lowest rank; the open tail after the
// last collective goes to the rank with the most exclusive time in
// it). The charged rank's exclusive per-phase seconds in the segment
// (spans bucketed by end time) are the segment's critical-path cost.
// Deterministic by construction: attempts, boundaries and ranks are
// all visited in sorted order.
func criticalPath(byRank map[int][]span, ranks []int) map[string]float64 {
	// Split every rank's spans by attempt; collect the attempt set.
	attempts := make(map[int]bool)
	perAttempt := make(map[int]map[int][]span)
	for _, r := range ranks {
		for _, s := range byRank[r] {
			m, ok := perAttempt[s.attempt]
			if !ok {
				m = make(map[int][]span)
				perAttempt[s.attempt] = m
				attempts[s.attempt] = true
			}
			m[r] = append(m[r], s)
		}
	}
	order := make([]int, 0, len(attempts))
	for a := range attempts {
		order = append(order, a)
	}
	sort.Ints(order)
	crit := make(map[string]float64)
	for _, a := range order {
		spansOf := perAttempt[a]
		// Boundaries: the distinct allreduce end times of the attempt.
		var bounds []float64
		seen := make(map[float64]bool)
		for _, r := range ranks {
			for _, s := range spansOf[r] {
				if s.phase == obs.PhaseAllreduce && !seen[s.end] {
					seen[s.end] = true
					bounds = append(bounds, s.end)
				}
			}
		}
		sort.Float64s(bounds)
		nseg := len(bounds) + 1 // +1 for the open tail
		// Bucket each rank's exclusive time into segments by span end;
		// remember each rank's wait on the allreduce closing a segment.
		type segCost struct {
			phases map[string]float64
			total  float64
		}
		rankSegs := make(map[int][]segCost)
		closeWait := make(map[int][]float64) // wait at each closing allreduce
		for _, r := range ranks {
			segs := make([]segCost, nseg)
			waits := make([]float64, len(bounds))
			for i := range waits {
				waits[i] = math.Inf(1)
			}
			exclusiveSweep(spansOf[r], func(s span, excl float64) {
				i := sort.SearchFloat64s(bounds, s.end)
				if segs[i].phases == nil {
					segs[i].phases = make(map[string]float64)
				}
				segs[i].phases[s.phase] += excl
				segs[i].total += excl
				if s.phase == obs.PhaseAllreduce && i < len(bounds) && bounds[i] == s.end {
					waits[i] = s.wait
				}
			})
			rankSegs[r] = segs
			closeWait[r] = waits
		}
		for i := 0; i < nseg; i++ {
			// The slowest rank arrived at the closing collective last —
			// minimum wait. The tail segment has no closing collective;
			// its slowest rank is the one with the most work in it.
			slow, best := -1, math.Inf(1)
			for _, r := range ranks {
				if i < len(bounds) && closeWait[r][i] < best {
					slow, best = r, closeWait[r][i]
				}
			}
			if slow < 0 {
				most := 0.0
				for _, r := range ranks {
					if t := rankSegs[r][i].total; t > most {
						slow, most = r, t
					}
				}
			}
			if slow < 0 {
				continue
			}
			for p, v := range rankSegs[slow][i].phases {
				crit[p] += v
			}
		}
	}
	return crit
}

// Analysis is the reduction of one trace directory: every run's phases,
// in run-key order.
type Analysis struct {
	// Runs holds one entry per trace file, sorted by run key.
	Runs []*RunPhases
}

// Analyze reduces parsed traces into an Analysis. Input order does not
// matter; the result is sorted by run key.
func Analyze(traces []*obs.Trace) *Analysis {
	a := &Analysis{Runs: make([]*RunPhases, 0, len(traces))}
	for _, tr := range traces {
		a.Runs = append(a.Runs, AnalyzeTrace(tr))
	}
	sort.Slice(a.Runs, func(i, j int) bool { return a.Runs[i].Key < a.Runs[j].Key })
	return a
}

// LoadDir parses every *.trace.jsonl under dir and returns the
// Analysis. Files are discovered in sorted order; a directory with no
// trace files is an error (it almost always means a mistyped path).
func LoadDir(dir string) (*Analysis, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("traceq: no *.trace.jsonl files in %s — point it at a campaign -trace directory (or solverd's -trace-dir)", dir)
	}
	sort.Strings(paths)
	traces := make([]*obs.Trace, 0, len(paths))
	for _, p := range paths {
		tr, err := obs.ReadTraceFile(p)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return Analyze(traces), nil
}
