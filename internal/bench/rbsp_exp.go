package bench

import (
	"cmp"
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/krylov"
	"repro/internal/machine"
)

// solverKind selects which solver family a scaling run uses: the CG
// and GMRES pairs (classic or pipelined), or A1's single-reduction
// CGS-1 GMRES, which has no pipelined twin.
type solverKind int

const (
	cgPair solverKind = iota
	gmresPair
	cgsGMRES
)

// timePerIter runs `iters` iterations of the chosen solver at P ranks
// (weak scaling: nLocal points per rank on a 1D chain) and returns the
// virtual time per iteration, maximised over ranks, or the world's
// error. It opens its own world rather than a campaign cell's: it runs
// a fixed iteration count (tol 1e-30) over dist.Stencil3, and the
// campaign executor solves to a tolerance over its assembled problems.
func timePerIter(rc RunCtx, p, nLocal, iters int, kind solverKind, pipelined bool, noise machine.Noise) (float64, error) {
	var out float64
	err := comm.Run(rc.cfg(p, noise), func(c *comm.Comm) error {
		op := dist.NewStencil3(c, nLocal*p, -1, 2.5, -1)
		nl := op.LocalLen()
		b := make([]float64, nl)
		for i := range b {
			b[i] = 1
		}
		var st krylov.Stats
		var err error
		switch {
		case kind == cgsGMRES:
			_, st, err = krylov.DistCGSGMRES(c, op, b, nil, krylov.DistGMRESOptions{Restart: iters, Tol: 1e-30, MaxIter: iters})
		case kind == cgPair && pipelined:
			_, st, err = krylov.DistPipelinedCG(c, op, b, nil, krylov.DistOptions{Tol: 1e-30, MaxIter: iters})
		case kind == cgPair:
			_, st, err = krylov.DistCG(c, op, b, nil, krylov.DistOptions{Tol: 1e-30, MaxIter: iters})
		case pipelined:
			_, st, err = krylov.DistP1GMRES(c, op, b, nil, krylov.DistGMRESOptions{Restart: iters, Tol: 1e-30, MaxIter: iters})
		default:
			_, st, err = krylov.DistGMRES(c, op, b, nil, krylov.DistGMRESOptions{Restart: iters, Tol: 1e-30, MaxIter: iters})
		}
		if err != nil {
			return err
		}
		mx, err := c.AllreduceScalar(c.Clock(), comm.OpMax)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && st.Iterations > 0 {
			out = mx / float64(st.Iterations)
		}
		return nil
	})
	return out, err
}

// F2 — weak-scaling latency sweep without noise (paper §III-B: poorly
// scaling synchronous collectives are "severe performance limiters";
// pipelining "can help restore scalability").
func F2(rc RunCtx) *Table {
	t := &Table{
		ID:      "F2",
		Title:   "Virtual time per iteration vs P (weak scaling, no noise)",
		Claim:   "§III-B: synchronous collectives limit scaling; pipelined variants hide reduction latency",
		Columns: []string{"P", "CG", "pipelined CG", "CG gain", "GMRES(MGS)", "p1-GMRES", "GMRES gain"},
	}
	const nLocal, iters = 256, 15
	ps := []int{16, 64, 256, 1024, 4096}
	if rc.Quick {
		ps = ps[:2]
	}
	for _, p := range ps {
		cg, e1 := timePerIter(rc, p, nLocal, iters, cgPair, false, nil)
		pcg, e2 := timePerIter(rc, p, nLocal, iters, cgPair, true, nil)
		gm, e3 := timePerIter(rc, p, nLocal, iters, gmresPair, false, nil)
		p1, e4 := timePerIter(rc, p, nLocal, iters, gmresPair, true, nil)
		if err := cmp.Or(e1, e2, e3, e4); err != nil {
			t.AddRow(fmt.Sprint(p), "ERR: "+err.Error())
			continue
		}
		t.AddRow(fmt.Sprint(p), f(cg), f(pcg), speedup(cg, pcg), f(gm), f(p1), speedup(gm, p1))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("1D Poisson chain, %d points/rank, %d iterations, LogP defaults (α=1µs)", nLocal, iters),
		"GMRES(MGS) posts j+1 blocking reductions at Arnoldi step j; p1-GMRES posts 1 overlapped reduction")
	return t
}

// F3 — the same sweep under OS-noise spikes (paper §II-B: "performance
// variability, when coupled with frequent collective operations, leads to
// severe limitations in scalability"). Noise is modelled as fixed 25 µs
// interruptions arriving at 500 Hz of compute time per rank — invariant
// to how kernels are fused, so the comparison isolates synchronisation
// structure.
func F3(rc RunCtx) *Table {
	t := &Table{
		ID:      "F3",
		Title:   "Per-iteration time under OS noise (25µs spikes @ 500/s compute)",
		Claim:   "§II-B: variability + frequent collectives ⇒ severe slowdown; RBSP hides it",
		Columns: []string{"P", "GMRES quiet", "GMRES noisy", "slowdown", "p1 quiet", "p1 noisy", "slowdown", "p1 advantage (noisy)"},
	}
	const nLocal, iters = 256, 15
	noise := machine.FixedSpike{Rate: 500, Duration: 25e-6}
	ps := []int{16, 64, 256, 1024, 4096}
	if rc.Quick {
		ps = ps[:2]
	}
	for _, p := range ps {
		gq, e1 := timePerIter(rc, p, nLocal, iters, gmresPair, false, nil)
		gn, e2 := timePerIter(rc, p, nLocal, iters, gmresPair, false, noise)
		pq, e3 := timePerIter(rc, p, nLocal, iters, gmresPair, true, nil)
		pn, e4 := timePerIter(rc, p, nLocal, iters, gmresPair, true, noise)
		if err := cmp.Or(e1, e2, e3, e4); err != nil {
			t.AddRow(fmt.Sprint(p), "ERR: "+err.Error())
			continue
		}
		t.AddRow(fmt.Sprint(p), f(gq), f(gn), slow(gq, gn), f(pq), f(pn), slow(pq, pn), speedup(gn, pn))
	}
	t.Notes = append(t.Notes,
		"fixed-duration spikes (Poisson in compute time) — the standard OS-noise model; amplification emerges at sync points",
		"the decision-relevant column is the last: absolute advantage of the pipelined solver on the noisy machine")
	return t
}

func slow(quiet, noisy float64) string {
	if quiet <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", noisy/quiet)
}

// T2 — the crossover table: the smallest P at which pipelining pays off
// by given factors, as a function of how much local work each rank holds
// (paper §III-B: "relatively minor design changes ... result in better
// tolerance of latency and performance variability"). Fat ranks are
// compute-dominated, so reductions — and hence pipelining — matter only
// beyond some scale; thin ranks are latency-dominated from the start.
func T2(rc RunCtx) *Table {
	t := &Table{
		ID:      "T2",
		Title:   "Smallest P where p1-GMRES beats MGS GMRES by a factor, per rank size",
		Claim:   "§III-B: latency-tolerant redesign pays off at scale; the crossover moves with local work",
		Columns: []string{"points/rank", "≥1.25x", "≥1.5x", "≥2x", "gain at P=1024"},
	}
	const iters = 15
	ps := []int{4, 16, 64, 256, 1024}
	sizes := []int{256, 4096, 32768}
	if rc.Quick {
		ps = ps[:3]
		sizes = sizes[:2]
	}
	for _, nLocal := range sizes {
		cross := map[float64]string{1.25: "-", 1.5: "-", 2: "-"}
		lastGain := ""
		var err error
		for _, p := range ps {
			gm, e1 := timePerIter(rc, p, nLocal, iters, gmresPair, false, nil)
			p1, e2 := timePerIter(rc, p, nLocal, iters, gmresPair, true, nil)
			if err = cmp.Or(e1, e2); err != nil {
				break
			}
			if p1 <= 0 || gm <= 0 {
				continue
			}
			gain := gm / p1
			for _, th := range []float64{1.25, 1.5, 2} {
				if gain >= th && cross[th] == "-" {
					cross[th] = fmt.Sprint(p)
				}
			}
			if p == 1024 {
				lastGain = fmt.Sprintf("%.2fx", gain)
			}
		}
		if err != nil {
			t.AddRow(fmt.Sprint(nLocal), "ERR: "+err.Error())
			continue
		}
		t.AddRow(fmt.Sprint(nLocal), cross[1.25], cross[1.5], cross[2], lastGain)
	}
	t.Notes = append(t.Notes,
		"entries are the smallest swept P reaching the speedup; '-' means not reached by P=1024",
		"thin ranks (256 pts) are latency-bound at any P; fat ranks (32768 pts) amortise the reductions until scale catches up")
	return t
}

// F8 — the comm-substrate microbenchmark (paper §II-B: MPI-3
// "asynchronous neighborhood and global collectives" enable RBSP). It
// times bare collectives, not a solve, so it opens its own worlds.
func F8(rc RunCtx) *Table {
	t := &Table{
		ID:      "F8",
		Title:   "Blocking vs non-blocking Allreduce with W flops of overlap work",
		Claim:   "§II-B: non-blocking collectives let useful work hide collective latency",
		Columns: []string{"P", "W (flops)", "blocking (s)", "overlapped (s)", "hidden"},
	}
	ps := []int{64, 1024}
	if rc.Quick {
		ps = ps[:1]
	}
	for _, p := range ps {
		for _, w := range []float64{0, 1e4, 1e5, 1e6} {
			run := func(overlap bool) (float64, error) {
				var out float64
				err := comm.Run(rc.cfg(p, nil), func(c *comm.Comm) error {
					const reps = 10
					var req comm.Request
					res := make([]float64, 1)
					for i := 0; i < reps; i++ {
						if overlap {
							c.StartAllreduce([]float64{1}, comm.OpSum, &req)
							c.Compute(w)
							if _, err := req.WaitInto(res); err != nil {
								return err
							}
						} else {
							if _, err := c.AllreduceScalar(1, comm.OpSum); err != nil {
								return err
							}
							c.Compute(w)
						}
					}
					mx, err := c.AllreduceScalar(c.Clock(), comm.OpMax)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						out = mx / reps
					}
					return nil
				})
				return out, err
			}
			tBlock, e1 := run(false)
			tOverlap, e2 := run(true)
			if err := cmp.Or(e1, e2); err != nil {
				t.AddRow(fmt.Sprint(p), f(w), "ERR: "+err.Error())
				continue
			}
			hidden := "0%"
			if tBlock > 0 {
				hidden = fmt.Sprintf("%.0f%%", 100*(1-tOverlap/tBlock))
			}
			t.AddRow(fmt.Sprint(p), f(w), f(tBlock), f(tOverlap), hidden)
		}
	}
	t.Notes = append(t.Notes, "per-round time, 10 rounds; overlap saturates when W·γ exceeds the tree latency")
	return t
}

func speedup(base, improved float64) string {
	if base <= 0 || improved <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", base/improved)
}
