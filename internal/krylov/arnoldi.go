package krylov

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/mem"
)

// arnoldiKind says which member of the restarted-GMRES family one
// arnoldi call is. It is not an option: the four exported entry points
// (DistGMRES, DistGMRESInner, DistFGMRES, DistCGSGMRES) each construct
// exactly one value, and nothing else does.
type arnoldiKind struct {
	// m is the right preconditioner; nil means none.
	m DistPreconditioner
	// flexible keeps every M⁻¹·v_j, so m may change from step to step
	// (FGMRES). Otherwise m must be fixed: one scratch vector serves
	// every step and the update is x += M⁻¹·(V·y), one extra application
	// per cycle.
	flexible bool
	// cgs orthogonalises with one merged reduction per step (cgs) where
	// the default makes j+2 (mgs). Its Pythagorean norm can cancel, so a
	// cgs solve trusts no Givens estimate: convergence is declared only
	// on the true residual at the top of a cycle, and two cycles that
	// fail to lower it end the solve.
	cgs bool
	// guard abandons a cycle whose new basis vector has a non-finite
	// norm, restarting from the iterate the cycle began with, and gives
	// up under the abandoned-cycle budget (see arnoldi). Without it a
	// corrupted operator runs NaN to MaxIter, which is what the pinned
	// gmres × bitflip campaign cells record.
	guard bool
	// quiet suppresses the iteration events.
	quiet bool
}

// arnoldi is the one restarted GMRES(m) loop over a distributed
// operator: a true residual opens each cycle, an Arnoldi step applies
// the (preconditioned) operator and orthogonalises with mgs or cgs, lsq
// carries the Givens-rotated least-squares problem, and the cycle's
// correction is added to x. The whole footprint — basis, preconditioned
// directions, scratch, least-squares system and residual history — is
// borrowed in one piece before the first cycle and returned when the
// solve ends (see borrow); cycles and steps allocate nothing (the halo
// exchange and reductions recycle buffers world-side too).
func arnoldi(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistGMRESOptions, kind arnoldiKind) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n, m := len(x), opts.Restart
	zRows := 0 // M⁻¹·v_j slots: none, one scratch, or one per step
	switch {
	case kind.m != nil && kind.flexible:
		zRows = m
	case kind.m != nil:
		zRows = 1
	}
	nDots := 0 // cgs: the merged reduction's buffer
	if kind.cgs {
		nDots = m + 2
	}
	ws := borrow(&st, (m+3+zRows)*n+lsqLen(m)+nDots, opts.MaxIter)
	defer release(ws, &st)
	v := ws.Mat(m+1, n)
	z := ws.Mat(zRows, n)
	w := ws.Vec(n)
	r := ws.Vec(n)
	q := carveLSQ(ws, m)
	dots := ws.Vec(nDots)
	kern := new(slabJob) // mgs's passes and the scaling, as an Offload job

	// The abandoned-cycle budget. A cycle abandoned at its first step
	// adds no iteration, so MaxIter alone does not bound a solve whose
	// every cycle is corrupt (a faulty operator can keep the iterate
	// non-finite for good). Such cycles draw on a budget of MaxIter of
	// their own, after which the solve gives up, unconverged, with an
	// infinite residual. Every rank sees the same reduced norm, so all
	// ranks give up together. Serial GMRESInto applies the same budget.
	abandoned := 0
	bestRes, stalls := math.Inf(1), 0 // cgs: best true residual, cycles since
	for st.Iterations < opts.MaxIter && !st.Converged {
		before := st.Iterations
		beta, err := trueResidual(c, a, b, x, w, r, &st)
		if err != nil {
			return x, st, err
		}
		rel := beta / bnorm
		if rel <= opts.Tol {
			st.Converged, st.FinalResidual = true, rel
			break
		}
		if kind.cgs {
			st.FinalResidual = rel
			if rel < bestRes {
				bestRes, stalls = rel, 0
			} else if stalls++; stalls >= 2 {
				break
			}
		}
		scaleInto(c, kern, 1/beta, r, v[0])
		q.reset(beta)

		j := 0
		for ; j < m && st.Iterations < opts.MaxIter; j++ {
			dir := v[j]
			if kind.m != nil {
				dir = z[0]
				if kind.flexible {
					dir = z[j]
				}
				if err := kind.m.ApplyInto(v[j], dir); err != nil {
					return x, st, err
				}
			}
			if err := a.Apply(dir, w); err != nil {
				return x, st, err
			}
			var hj1 float64
			if kind.cgs {
				hj1, err = cgs(c, v, w, j, q.h, dots, &st)
			} else {
				hj1, err = mgs(c, kern, v, w, j, q.h, &st)
			}
			if err != nil {
				return x, st, err
			}
			if kind.guard && (math.IsNaN(hj1) || math.IsInf(hj1, 0)) {
				j = 0
				break
			}
			q.h.Set(j+1, j, hj1)
			if hj1 > 0 {
				scaleInto(c, kern, 1/hj1, w, v[j+1])
			}
			st.Iterations++
			relres := q.push(j) / bnorm
			st.Residuals = append(st.Residuals, relres)
			st.FinalResidual = relres
			if !kind.quiet {
				emitIteration(c, st.Iterations, relres)
			}
			// hj1 == 0 is happy breakdown: the column is complete and
			// the update below uses it.
			if relres <= opts.Tol || hj1 == 0 {
				j++
				break
			}
		}
		if j > 0 {
			y := q.solve(j)
			if kind.m != nil && !kind.flexible {
				// Fixed M: x += M⁻¹·(V·y), one application per cycle.
				clear(w)
				combine(c, y[:j], v, w)
				if err := kind.m.ApplyInto(w, z[0]); err != nil {
					return x, st, err
				}
				dist.Axpy(c, 1, z[0], x)
			} else {
				dirs := v
				if kind.m != nil {
					dirs = z
				}
				combine(c, y[:j], dirs, x)
			}
		}
		st.Restarts++
		if !kind.cgs && st.FinalResidual <= opts.Tol {
			st.Converged = true
		}
		if kind.guard && st.Iterations == before {
			if abandoned++; abandoned == opts.MaxIter {
				st.FinalResidual = math.Inf(1)
				break
			}
		}
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}

// scaleInto sets dst = alpha·src on the local slabs in one pass, through
// k, and charges what copy + dist.Scal charge: the same product per
// element, one n-flop charge.
func scaleInto(c *comm.Comm, k *slabJob, alpha float64, src, dst []float64) {
	k.scale(c, alpha, src, dst)
	c.Compute(float64(len(src)))
}

// combine adds Σ y[i]·d[i] to x on the local slabs in one pass: each
// element takes its terms in order i = 0, 1, …, exactly as len(y)
// successive dist.Axpy calls would, and each term keeps its Axpy's
// charge. Four elements advance at a time, so the per-element chains
// of dependent adds overlap.
func combine(c *comm.Comm, y []float64, d [][]float64, x []float64) {
	d = d[:len(y)]
	for _, di := range d {
		la.CheckLen("d", di, len(x))
	}
	n := len(x) &^ 3
	for k := 0; k < n; k += 4 {
		xs := x[k : k+4 : k+4]
		s0, s1, s2, s3 := xs[0], xs[1], xs[2], xs[3]
		for i, a := range y {
			ds := d[i][k : k+4 : k+4]
			s0 += a * ds[0]
			s1 += a * ds[1]
			s2 += a * ds[2]
			s3 += a * ds[3]
		}
		xs[0], xs[1], xs[2], xs[3] = s0, s1, s2, s3
	}
	for k := n; k < len(x); k++ {
		s := x[k]
		for i, a := range y {
			s += a * d[i][k]
		}
		x[k] = s
	}
	for range y {
		c.Compute(la.FlopsAxpy(len(x)))
	}
}

// borrow takes a distributed solve's whole scratch in one piece: a
// recycled mem.Workspace with room for elems elements and the residual
// history, which it carves first — min(maxIter, residualPrealloc)
// entries, so the iteration loop appends without allocating for every
// realistic solve and an "effectively unbounded" maxIter commits
// nothing large (beyond the bound the history grows by normal appends,
// off the workspace). The solver carves the rest and defers release.
func borrow(st *Stats, elems, maxIter int) *mem.Workspace {
	hist := min(maxIter, residualPrealloc)
	ws := mem.Borrow(elems + hist)
	st.Residuals = ws.Vec(hist)[:0]
	return ws
}

// release ends a borrowed solve on every return path: the residual
// history leaves the workspace as a right-sized copy — the one piece of
// scratch a caller keeps — and the workspace goes back for the next
// solve. The solution never lived there (start allocates it).
func release(ws *mem.Workspace, st *Stats) {
	st.Residuals = la.Copy(st.Residuals)
	ws.Return()
}

// start opens a distributed solve the way all ten solvers do: it checks
// b and the warm start x0 (nil for zero) against the rank's slab, copies
// x0 into a fresh iterate, and reduces ‖b‖. A zero right-hand side
// counts as solved by the iterate as it stands: st.Converged is set and
// the caller returns.
func start(c *comm.Comm, a dist.Operator, b, x0 []float64) (x []float64, bnorm float64, st Stats, err error) {
	n := a.LocalLen()
	la.CheckLen("b", b, n)
	x = make([]float64, n)
	if x0 != nil {
		la.CheckLen("x0", x0, n)
		copy(x, x0)
	}
	if bnorm, err = dist.Norm2(c, b); err != nil {
		return x, 0, st, err
	}
	st.Reductions++
	st.Converged = bnorm == 0
	return x, bnorm, st, nil
}

// trueResidual computes r = b − A·x through the scratch vector w (which
// r may alias) and returns the reduced ‖r‖: one operator application,
// one n-flop charge, one reduction.
func trueResidual(c *comm.Comm, a dist.Operator, b, x, w, r []float64, st *Stats) (float64, error) {
	if err := a.Apply(x, w); err != nil {
		return 0, err
	}
	for i := range r {
		r[i] = b[i] - w[i]
	}
	c.Compute(float64(len(r)))
	beta, err := dist.Norm2(c, r)
	if err != nil {
		return 0, err
	}
	st.Reductions++
	return beta, nil
}

// lsq is the small least-squares problem min ‖β·e₁ − H·y‖ of one GMRES
// cycle, kept triangular by Givens rotations as the Arnoldi process adds
// columns. Every GMRES in the package — serial, the arnoldi engine and
// the pipelined p1Cycle — writes column j of h (rows 0..j+1) and calls
// push(j); none rotates by hand.
type lsq struct {
	h   *la.Dense   // (m+1)×m Hessenberg matrix, rotated in place
	g   []float64   // rotated right-hand side, length m+1
	rot []la.Givens // rotation j annihilates h(j+1, j)
	y   []float64   // solve's result storage, length m
}

// lsqLen is the number of workspace elements carveLSQ(ws, m) takes.
func lsqLen(m int) int { return (m+1)*m + (m + 1) + m }

// carveLSQ carves the system for cycles of up to m steps from ws; only
// the rotations, which are not float64 storage, are allocated.
func carveLSQ(ws *mem.Workspace, m int) lsq {
	return lsq{
		h:   &la.Dense{Rows: m + 1, Cols: m, Data: ws.Vec((m + 1) * m)},
		g:   ws.Vec(m + 1),
		rot: make([]la.Givens, m),
		y:   ws.Vec(m),
	}
}

// reset starts a cycle whose initial residual norm is beta.
func (q *lsq) reset(beta float64) {
	clear(q.g)
	q.g[0] = beta
}

// push applies the earlier rotations to the freshly written column j,
// creates the rotation annihilating its subdiagonal, rotates the
// right-hand side, and returns the residual norm estimate |g[j+1]|.
func (q *lsq) push(j int) float64 {
	// Locals: reading the three through the receiver inside the loop
	// measurably slows the serial GMRES iteration kernel.
	h, g, rot := q.h, q.g, q.rot
	for i := 0; i < j; i++ {
		a, b := rot[i].Apply(h.At(i, j), h.At(i+1, j))
		h.Set(i, j, a)
		h.Set(i+1, j, b)
	}
	gv, rr := la.MakeGivens(h.At(j, j), h.At(j+1, j))
	rot[j] = gv
	h.Set(j, j, rr)
	h.Set(j+1, j, 0)
	g[j], g[j+1] = gv.Apply(g[j], g[j+1])
	return math.Abs(g[j+1])
}

// solve back-substitutes the rotated leading j×j triangle against the
// right-hand side and returns y (length j, valid until the next solve).
func (q *lsq) solve(j int) []float64 {
	h, g, y := q.h, q.g, q.y[:j]
	for i := j - 1; i >= 0; i-- {
		s := g[i]
		for k := i + 1; k < j; k++ {
			s -= h.At(i, k) * y[k]
		}
		y[i] = s / h.At(i, i)
	}
	return y
}
