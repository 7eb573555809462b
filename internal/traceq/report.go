package traceq

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Report is the rendered trace-analytics report: cross-run phase
// comparisons as Markdown, and the full per-run and per-cell
// attribution as CSV. Both renderings are pure functions of the
// Analysis — byte-identical across reruns and worker counts, because
// per-run traces are.
type Report struct {
	// Markdown is the human-facing document.
	Markdown []byte
	// CSV is the full-precision flat table (see BuildReport for the
	// section layout).
	CSV []byte
}

// g formats a float the way the report does everywhere: shortest
// round-trip representation, so rendering adds no rounding of its own.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// g4 formats a float to 4 significant digits for the Markdown tables
// (the CSV keeps full precision).
func g4(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// pct renders a share as a percentage with 4 significant digits.
func pct(v float64) string { return g4(v*100) + "%" }

// dist is one sorted sample set with its summary stats.
type dist struct {
	vals []float64
}

func (d *dist) add(v float64)       { d.vals = append(d.vals, v) }
func (d *dist) merge(o *dist)       { d.vals = append(d.vals, o.vals...) }
func (d *dist) sorted() []float64   { sort.Float64s(d.vals); return d.vals }
func (d *dist) mean() float64       { return stats.Mean(d.vals) }
func (d *dist) q(p float64) float64 { return stats.Quantile(d.sorted(), p) }

// solverPhases accumulates per-run shares for one (solver, phase).
type solverPhases struct {
	solver string
	phases map[string]*dist
}

// bySolver groups the runs' phase shares by solver, in sorted solver
// order.
func bySolver(a *Analysis) []*solverPhases {
	idx := map[string]*solverPhases{}
	var order []string
	for _, r := range a.Runs {
		sp, ok := idx[r.Solver]
		if !ok {
			sp = &solverPhases{solver: r.Solver, phases: map[string]*dist{}}
			idx[r.Solver] = sp
			order = append(order, r.Solver)
		}
		for _, p := range AttributionPhases() {
			distOf(sp.phases, p).add(r.Share(p))
		}
	}
	sort.Strings(order)
	out := make([]*solverPhases, 0, len(order))
	for _, s := range order {
		out = append(out, idx[s])
	}
	return out
}

// sectionAttribution renders the headline table: mean share of virtual
// time per phase, one row per solver, then the per-(solver, phase)
// distribution table.
func sectionAttribution(b *bytes.Buffer, a *Analysis) {
	groups := bySolver(a)
	b.WriteString("## Phase attribution by solver\n\n")
	if len(groups) == 0 {
		b.WriteString("No runs.\n\n")
		return
	}
	b.WriteString("Mean share of a run's virtual time spent in each phase (exclusive:\n")
	b.WriteString("nested spans count only their own time), averaged over the solver's runs.\n\n")
	b.WriteString("| solver |")
	for _, p := range AttributionPhases() {
		fmt.Fprintf(b, " %s |", p)
	}
	b.WriteString("\n|---|")
	for range AttributionPhases() {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, sp := range groups {
		fmt.Fprintf(b, "| %s |", sp.solver)
		for _, p := range AttributionPhases() {
			fmt.Fprintf(b, " %s |", pct(sp.phases[p].mean()))
		}
		b.WriteString("\n")
	}
	b.WriteString("\n### Share distribution across runs\n\n")
	b.WriteString("| solver | phase | mean | p50 | p90 | p99 |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, sp := range groups {
		for _, p := range AttributionPhases() {
			d := sp.phases[p]
			fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %s |\n",
				sp.solver, p, pct(d.mean()), pct(d.q(0.50)), pct(d.q(0.90)), pct(d.q(0.99)))
		}
	}
	b.WriteString("\n")
}

// pairFTGMRES pairs the gmres and ftgmres runs of cells that differ
// only in solver (by the solver-held-out suffix of the cell key) and,
// over the pairs where both solvers ran, merges each side's per-run
// share of every attribution phase, pairs in key order. allRank keeps
// only runs with all-rank spans. It returns the merged gmres and
// ftgmres shares and the number of pairs.
func pairFTGMRES(a *Analysis, allRank bool, share func(*RunPhases, string) float64) (gm, ft map[string]*dist, paired int) {
	type pair struct{ gm, ft map[string]*dist }
	pairs := map[string]*pair{}
	var order []string
	for _, r := range a.Runs {
		solver, rest, ok := strings.Cut(r.Cell, "/")
		if !ok || (solver != "gmres" && solver != "ftgmres") || (allRank && !r.AllRank()) {
			continue
		}
		pr, seen := pairs[rest]
		if !seen {
			pr = &pair{gm: map[string]*dist{}, ft: map[string]*dist{}}
			pairs[rest] = pr
			order = append(order, rest)
		}
		side := pr.gm
		if solver == "ftgmres" {
			side = pr.ft
		}
		for _, p := range AttributionPhases() {
			distOf(side, p).add(share(r, p))
		}
	}
	sort.Strings(order)
	gm, ft = map[string]*dist{}, map[string]*dist{}
	for _, rest := range order {
		pr := pairs[rest]
		if len(pr.gm) == 0 || len(pr.ft) == 0 {
			continue
		}
		paired++
		for _, p := range AttributionPhases() {
			distOf(gm, p).merge(pr.gm[p])
			distOf(ft, p).merge(pr.ft[p])
		}
	}
	return gm, ft, paired
}

// distOf returns m's dist for key, adding an empty one if there is none.
func distOf(m map[string]*dist, key string) *dist {
	d, ok := m[key]
	if !ok {
		d = &dist{}
		m[key] = d
	}
	return d
}

// sectionFTGMRESDeltas renders the selective-reliability attribution
// claim: on cells where both solvers ran, where does FT-GMRES spend the
// time plain GMRES does not (sanitisation, extra inner reductions) and
// where does it save it (restart recovery)?
func sectionFTGMRESDeltas(b *bytes.Buffer, a *Analysis) {
	gm, ft, paired := pairFTGMRES(a, false, (*RunPhases).Share)
	b.WriteString("## ftgmres vs gmres: phase deltas\n\n")
	if paired == 0 {
		b.WriteString("No (ftgmres, gmres) cell pairs in this trace set.\n\n")
		return
	}
	fmt.Fprintf(b, "Mean phase shares over the %d cell pairs where both solvers ran —\n", paired)
	b.WriteString("the attribution behind the selective-reliability claim: the delta is\n")
	b.WriteString("what the reliable-outer/unreliable-inner architecture costs (sanitize,\n")
	b.WriteString("extra orthogonalisation) and saves (restart recovery) in percentage\n")
	b.WriteString("points of run time.\n\n")
	b.WriteString("| phase | gmres | ftgmres | delta (pp) |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range AttributionPhases() {
		gmean, fmean := gm[p].mean(), ft[p].mean()
		fmt.Fprintf(b, "| %s | %s | %s | %s |\n", p, pct(gmean), pct(fmean), g4((fmean-gmean)*100))
	}
	b.WriteString("\n")
}

// allRankGroups groups the all-rank runs by (solver, ranks), both
// sorted ascending — the aggregation axis of the parallel-cost
// sections. Nil when the trace set has no all-rank runs.
type allRankGroup struct {
	solver string
	ranks  int
	runs   []*RunPhases
}

func allRankGroups(a *Analysis) []*allRankGroup {
	type key struct {
		solver string
		ranks  int
	}
	idx := map[key]*allRankGroup{}
	var order []key
	for _, r := range a.Runs {
		if !r.AllRank() {
			continue
		}
		k := key{r.Solver, r.Ranks}
		g, ok := idx[k]
		if !ok {
			g = &allRankGroup{solver: r.Solver, ranks: r.Ranks}
			idx[k] = g
			order = append(order, k)
		}
		g.runs = append(g.runs, r)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].solver != order[j].solver {
			return order[i].solver < order[j].solver
		}
		return order[i].ranks < order[j].ranks
	})
	out := make([]*allRankGroup, 0, len(order))
	for _, k := range order {
		out = append(out, idx[k])
	}
	return out
}

// noAllRank is the shared friendly empty state of the parallel-cost
// sections: single-rank runs and rank-0-filtered traces carry no
// cross-rank signal, so the sections say how to record one instead of
// rendering a degenerate table.
const noAllRank = "No all-rank traces in this set (runs either kept only rank 0's spans\n" +
	"or ran single-rank). Record them with `-trace-ranks all` to see\n" +
	"cross-rank skew, wait time and the critical path.\n\n"

// sectionImbalance renders the per-phase load-imbalance index over
// all-rank runs: max/mean exclusive seconds across ranks, distributed
// over each (solver, ranks) group's runs.
func sectionImbalance(b *bytes.Buffer, a *Analysis) {
	groups := allRankGroups(a)
	b.WriteString("## Load imbalance by phase\n\n")
	if len(groups) == 0 {
		b.WriteString(noAllRank)
		return
	}
	b.WriteString("Imbalance index = max/mean exclusive seconds across ranks (1 =\n")
	b.WriteString("perfectly balanced, ranks = one rank does everything); distribution\n")
	b.WriteString("over each group's runs, phases the group never entered omitted.\n\n")
	b.WriteString("| solver | ranks | phase | runs | mean | p50 | p90 | p99 |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, g := range groups {
		for _, p := range AttributionPhases() {
			if p == PhaseUnattributed {
				continue
			}
			var d dist
			for _, r := range g.runs {
				if idx := r.ImbalanceIndex(p); idx > 0 {
					d.add(idx)
				}
			}
			if len(d.vals) == 0 {
				continue
			}
			fmt.Fprintf(b, "| %s | %d | %s | %d | %s | %s | %s | %s |\n",
				g.solver, g.ranks, p, len(d.vals),
				g4(d.mean()), g4(d.q(0.50)), g4(d.q(0.90)), g4(d.q(0.99)))
		}
	}
	b.WriteString("\n")
}

// sectionWaitShare renders per-rank wait-time share over all-rank
// runs: the fraction of a run's virtual time each rank spent blocked
// behind the slowest participant of a collective or a late halo
// message.
func sectionWaitShare(b *bytes.Buffer, a *Analysis) {
	groups := allRankGroups(a)
	b.WriteString("## Wait-time share per rank\n\n")
	if len(groups) == 0 {
		b.WriteString(noAllRank)
		return
	}
	b.WriteString("Share of a run's virtual time each rank spent blocked — waiting at a\n")
	b.WriteString("collective behind the slowest poster, or at a halo receive for a\n")
	b.WriteString("message still in flight. Distribution over each group's runs.\n\n")
	b.WriteString("| solver | ranks | rank | mean | p50 | p90 | p99 |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, g := range groups {
		for rank := 0; rank < g.ranks; rank++ {
			var d dist
			for _, r := range g.runs {
				d.add(r.WaitShare(rank))
			}
			fmt.Fprintf(b, "| %s | %d | %d | %s | %s | %s | %s |\n",
				g.solver, g.ranks, rank,
				pct(d.mean()), pct(d.q(0.50)), pct(d.q(0.90)), pct(d.q(0.99)))
		}
	}
	b.WriteString("\n")
}

// sectionCriticalPath renders the per-attempt critical-path
// attribution over all-rank runs — which phases the slowest rank of
// each inter-collective segment was running — and the ftgmres-vs-gmres
// critical-path deltas over paired cells.
func sectionCriticalPath(b *bytes.Buffer, a *Analysis) {
	groups := allRankGroups(a)
	b.WriteString("## Critical path by phase\n\n")
	if len(groups) == 0 {
		b.WriteString(noAllRank)
		return
	}
	b.WriteString("Each attempt's timeline is segmented at its collective sync points\n")
	b.WriteString("(every rank leaves an allreduce at the same stamp); each segment is\n")
	b.WriteString("charged to its slowest rank — the one that arrived at the closing\n")
	b.WriteString("collective last — under that rank's phases. Mean share of\n")
	b.WriteString("critical-path seconds per phase, over each group's runs.\n\n")
	b.WriteString("| solver | ranks |")
	for _, p := range AttributionPhases() {
		if p == PhaseUnattributed {
			continue
		}
		fmt.Fprintf(b, " %s |", p)
	}
	b.WriteString("\n|---|---|")
	for _, p := range AttributionPhases() {
		if p == PhaseUnattributed {
			continue
		}
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, g := range groups {
		fmt.Fprintf(b, "| %s | %d |", g.solver, g.ranks)
		for _, p := range AttributionPhases() {
			if p == PhaseUnattributed {
				continue
			}
			var d dist
			for _, r := range g.runs {
				d.add(r.CritShare(p))
			}
			fmt.Fprintf(b, " %s |", pct(d.mean()))
		}
		b.WriteString("\n")
	}
	// The selective-reliability delta on the critical path, over the
	// all-rank runs only.
	gm, ft, paired := pairFTGMRES(a, true, (*RunPhases).CritShare)
	b.WriteString("\n### ftgmres vs gmres on the critical path\n\n")
	if paired == 0 {
		b.WriteString("No all-rank (ftgmres, gmres) cell pairs in this trace set.\n\n")
		return
	}
	fmt.Fprintf(b, "Mean critical-path shares over the %d cell pairs where both solvers\n", paired)
	b.WriteString("ran all-rank — what selective reliability costs where it cannot be\n")
	b.WriteString("hidden: on the path every rank waits for.\n\n")
	b.WriteString("| phase | gmres | ftgmres | delta (pp) |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range AttributionPhases() {
		if p == PhaseUnattributed {
			continue
		}
		gmean, fmean := gm[p].mean(), ft[p].mean()
		fmt.Fprintf(b, "| %s | %s | %s | %s |\n", p, pct(gmean), pct(fmean), g4((fmean-gmean)*100))
	}
	b.WriteString("\n")
}

// sectionRecovery renders the fault-to-recovery latency distribution:
// the virtual time each global restart threw away, over every restart
// in the trace set.
func sectionRecovery(b *bytes.Buffer, a *Analysis) {
	var d dist
	for _, r := range a.Runs {
		for _, v := range r.Recoveries {
			d.add(v)
		}
	}
	b.WriteString("## Fault-to-recovery latency\n\n")
	if len(d.vals) == 0 {
		b.WriteString("No global restarts in this trace set.\n\n")
		return
	}
	b.WriteString("Virtual seconds lost per global restart (attempt start to the failed\n")
	b.WriteString("rank's death — the work the checkpointless restart policy pays again):\n\n")
	b.WriteString("| restarts | mean | p50 | p90 | p99 | max |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	s := d.sorted()
	fmt.Fprintf(b, "| %d | %s | %s | %s | %s | %s |\n\n",
		len(s), g4(d.mean()), g4(d.q(0.50)), g4(d.q(0.90)), g4(d.q(0.99)), g4(s[len(s)-1]))
}

// discardBucket maps an inner-solve ordinal to its histogram bucket
// label; buckets are 5 ordinals wide, capped at 50+.
func discardBucket(ordinal int) string {
	if ordinal >= 51 {
		return "51+"
	}
	lo := ((ordinal - 1) / 5 * 5) + 1
	return fmt.Sprintf("%d-%d", lo, lo+4)
}

// sectionDiscards renders the discard ordinal histogram: at which inner
// solve FT-GMRES's sanitisation consensus rejected a result.
func sectionDiscards(b *bytes.Buffer, a *Analysis) {
	counts := map[string]int{}
	total := 0
	for _, r := range a.Runs {
		for _, o := range r.Discards {
			counts[discardBucket(o)]++
			total++
		}
	}
	b.WriteString("## Discard ordinal histogram\n\n")
	if total == 0 {
		b.WriteString("No inner discards in this trace set.\n\n")
		return
	}
	fmt.Fprintf(b, "%d discards: which inner solve (ordinal within its run) the\n", total)
	b.WriteString("sanitisation consensus rejected — early ordinals mean faults bite while\n")
	b.WriteString("the residual is still large, late ones that corruption chases the\n")
	b.WriteString("converged tail.\n\n")
	b.WriteString("| inner-solve ordinal | discards |\n")
	b.WriteString("|---|---|\n")
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return bucketLo(labels[i]) < bucketLo(labels[j]) })
	for _, l := range labels {
		fmt.Fprintf(b, "| %s | %d |\n", l, counts[l])
	}
	b.WriteString("\n")
}

// bucketLo extracts a bucket label's lower bound for sorting.
func bucketLo(label string) int {
	s, _, _ := strings.Cut(label, "-")
	s = strings.TrimSuffix(s, "+")
	n, _ := strconv.Atoi(s)
	return n
}

// csvReport renders the flat full-precision table. One row per
// (section, key, phase):
//
//	section=run:       per-run attribution — seconds and share of that run
//	section=cell:      per-cell attribution — mean seconds, mean/p50/p90/p99 share
//	section=recovery:  one row per restart — seconds lost
//	section=discard:   one row per discard — ordinal in the phase column
//	section=imbalance: per-run per-phase imbalance index (all-rank runs;
//	                   index in the share column, max rank seconds in seconds)
//	section=wait:      per-run per-rank wait (all-rank runs; rank<R> in the
//	                   phase column, wait seconds and share of run time)
//	section=critpath:  per-run critical-path attribution (all-rank runs;
//	                   seconds on the path and share of path time)
func csvReport(a *Analysis) []byte {
	var b bytes.Buffer
	b.WriteString("section,key,solver,phase,n,seconds,share,share_p50,share_p90,share_p99\n")
	type cellAgg struct {
		solver  string
		n       int
		seconds map[string]*dist
		shares  map[string]*dist
	}
	cells := map[string]*cellAgg{}
	var cellOrder []string
	for _, r := range a.Runs {
		ca, ok := cells[r.Cell]
		if !ok {
			ca = &cellAgg{solver: r.Solver, seconds: map[string]*dist{}, shares: map[string]*dist{}}
			for _, p := range AttributionPhases() {
				ca.seconds[p] = &dist{}
				ca.shares[p] = &dist{}
			}
			cells[r.Cell] = ca
			cellOrder = append(cellOrder, r.Cell)
		}
		ca.n++
		for _, p := range AttributionPhases() {
			ca.seconds[p].add(r.Seconds[p])
			ca.shares[p].add(r.Share(p))
			fmt.Fprintf(&b, "run,%s,%s,%s,1,%s,%s,,,\n", r.Key, r.Solver, p, g(r.Seconds[p]), g(r.Share(p)))
		}
		for _, v := range r.Recoveries {
			fmt.Fprintf(&b, "recovery,%s,%s,%s,1,%s,,,,\n", r.Key, r.Solver, obs.PhaseRestartRecovery, g(v))
		}
		for _, o := range r.Discards {
			fmt.Fprintf(&b, "discard,%s,%s,%d,1,,,,,\n", r.Key, r.Solver, o)
		}
		if r.AllRank() {
			for _, p := range AttributionPhases() {
				if p == PhaseUnattributed {
					continue
				}
				if idx := r.ImbalanceIndex(p); idx > 0 {
					maxSec := 0.0
					for _, secs := range r.RankSeconds {
						if v := secs[p]; v > maxSec {
							maxSec = v
						}
					}
					fmt.Fprintf(&b, "imbalance,%s,%s,%s,%d,%s,%s,,,\n",
						r.Key, r.Solver, p, r.SpanRanks, g(maxSec), g(idx))
				}
				if v := r.CritPath[p]; v > 0 {
					fmt.Fprintf(&b, "critpath,%s,%s,%s,1,%s,%s,,,\n",
						r.Key, r.Solver, p, g(v), g(r.CritShare(p)))
				}
			}
			for rank := 0; rank < r.Ranks; rank++ {
				fmt.Fprintf(&b, "wait,%s,%s,rank%d,1,%s,%s,,,\n",
					r.Key, r.Solver, rank, g(r.RankWait[rank]), g(r.WaitShare(rank)))
			}
		}
	}
	sort.Strings(cellOrder)
	for _, cell := range cellOrder {
		ca := cells[cell]
		for _, p := range AttributionPhases() {
			sh := ca.shares[p]
			fmt.Fprintf(&b, "cell,%s,%s,%s,%d,%s,%s,%s,%s,%s\n",
				cell, ca.solver, p, ca.n,
				g(ca.seconds[p].mean()), g(sh.mean()), g(sh.q(0.50)), g(sh.q(0.90)), g(sh.q(0.99)))
		}
	}
	return b.Bytes()
}

// BuildReport renders the Analysis into its Markdown + CSV report:
// phase attribution by solver (mean and distribution), the
// ftgmres-vs-gmres phase deltas, the parallel-cost sections over
// all-rank traces (load imbalance, wait-time share per rank, the
// per-attempt critical path with its own ftgmres-vs-gmres deltas), the
// fault-to-recovery latency distribution, and the discard ordinal
// histogram. Deterministic by construction: every table follows sorted
// key order.
func BuildReport(a *Analysis) *Report {
	var b bytes.Buffer
	cells := map[string]bool{}
	for _, r := range a.Runs {
		cells[r.Cell] = true
	}
	fmt.Fprintf(&b, "# Trace analytics: %d runs, %d cells\n\n", len(a.Runs), len(cells))
	sectionAttribution(&b, a)
	sectionFTGMRESDeltas(&b, a)
	sectionImbalance(&b, a)
	sectionWaitShare(&b, a)
	sectionCriticalPath(&b, a)
	sectionRecovery(&b, a)
	sectionDiscards(&b, a)
	b.WriteString("Full per-run and per-cell attribution is in the CSV twin of this report.\n")
	return &Report{Markdown: b.Bytes(), CSV: csvReport(a)}
}
