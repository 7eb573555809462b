package krylov

import (
	"errors"
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/mem"
)

// DistGMRESOptions configures the distributed GMRES variants.
type DistGMRESOptions struct {
	Restart int     // m (default 30)
	Tol     float64 // relative residual target (default 1e-8)
	MaxIter int     // total iteration cap (default 300)
	// Precon, when non-nil, turns DistGMRES into *fixed* right-
	// preconditioned GMRES: Arnoldi runs on A·M⁻¹ and the update is
	// x += M⁻¹·(V·y), costing one extra preconditioner application per
	// restart cycle instead of FGMRES's per-iteration basis storage.
	// The preconditioner must not change during the solve — use
	// DistFGMRES when it does. DistP1GMRES's pipelined recurrence is
	// unpreconditioned and rejects a set Precon with an error rather
	// than silently dropping it.
	Precon DistPreconditioner
}

func (o *DistGMRESOptions) defaults() {
	if o.Restart <= 0 {
		o.Restart = 30
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
}

// DistGMRES is the "straightforward" distributed GMRES(m) the paper's
// §III-B criticises: modified Gram–Schmidt makes j+1 *separate blocking*
// all-reduces in iteration j (one per projection, plus the norm), so the
// synchronisation count grows quadratically over a restart cycle. It is
// numerically the most stable variant and serves as the latency baseline
// for p1-GMRES in experiments F2/F3. With opts.Precon set it runs
// right-preconditioned (see DistGMRESOptions.Precon).
func DistGMRES(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistGMRESOptions) ([]float64, Stats, error) {
	return arnoldi(c, a, b, x0, opts, arnoldiKind{m: opts.Precon})
}

// DistGMRESInner is DistGMRES run as a preconditioner inside another
// solve (srp.DistInner): identical arithmetic, cost and spans, but no
// iteration events — a run's progress stream reports the outer solver's
// iterations only.
func DistGMRESInner(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistGMRESOptions) ([]float64, Stats, error) {
	return arnoldi(c, a, b, x0, opts, arnoldiKind{m: opts.Precon, quiet: true})
}

// DistFGMRES is distributed flexible GMRES(m): right-preconditioned MGS
// Arnoldi where the preconditioner may change every iteration — which is
// how a whole (possibly unreliable) inner solve serves as M, making this
// the reliable outer solver of the distributed FT-GMRES in internal/srp.
// Being the reliable one, it abandons a cycle whose new basis vector is
// not finite rather than carry NaN into the iterate, and gives up,
// unconverged with an infinite residual, after MaxIter such cycles.
//
// opts.Precon is any DistPreconditioner (internal/precond
// implementations, srp.DistInner, …); each iteration's application is
// stored, so unlike DistGMRES's fixed-M mode nothing requires the
// applications to be consistent with each other. A nil Precon makes the
// solve plain DistGMRES mathematics.
func DistFGMRES(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistGMRESOptions) ([]float64, Stats, error) {
	return arnoldi(c, a, b, x0, opts, arnoldiKind{m: opts.Precon, flexible: true, guard: true})
}

// DistCGSGMRES is the one-reduction GMRES: classical Gram–Schmidt with
// the Pythagorean normalisation trick, so Arnoldi step j posts exactly
// one *blocking* merged reduction ([Vᵀw, ‖w‖²]) instead of MGS's j+2.
// It is the ablation midpoint between DistGMRES and DistP1GMRES —
// comparing the three separates the benefit of merging reductions from
// the benefit of overlapping them (experiment A1). The merged norm can
// misestimate under cancellation (see DistP1GMRES), so convergence is
// only ever declared on the true residual at the top of a cycle.
func DistCGSGMRES(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistGMRESOptions) ([]float64, Stats, error) {
	return arnoldi(c, a, b, x0, opts, arnoldiKind{m: opts.Precon, cgs: true})
}

// DistP1GMRES is pipelined GMRES at depth one, after Ghysels, Ashby,
// Meerbergen and Vanroose (the paper's reference [11]). Per iteration it
// performs one SpMV and a single merged *non-blocking* reduction that is
// overlapped with the next SpMV. The algorithm maintains two bases with
// the invariant z_{j+1} = A·v_j:
//
//	iteration i computes q = A·z_i while the reduction for z_i's
//	Gram–Schmidt coefficients is still in flight; once it lands,
//	h_{j,i−1} = (z_i, v_j),  h_{i,i−1} = sqrt(‖z_i‖² − Σ h²)
//	v_i  = (z_i − Σ h_{j,i−1} v_j)/h_{i,i−1}
//	z_{i+1} = (q  − Σ h_{j,i−1} z_{j+1})/h_{i,i−1}   (= A·v_i by linearity)
//
// so normalisation lags the SpMV by exactly one iteration. The square
// root can lose accuracy when ‖z‖² ≈ Σh² (classical-Gram–Schmidt-style
// cancellation); the solver detects a non-positive value and signals a
// restart, the standard p(l)-GMRES safeguard.
func DistP1GMRES(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistGMRESOptions) (x []float64, st Stats, err error) {
	if opts.Precon != nil {
		return nil, Stats{}, errors.New("krylov: DistP1GMRES does not support preconditioning; use DistGMRES or DistFGMRES")
	}
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n, m := len(x), opts.Restart
	arena := borrow(&st, (2*m+7)*n+lsqLen(m)+2*(m+2), opts.MaxIter)
	defer release(arena, &st)
	ws := carveP1Workspace(arena, n, m)

	// The Pythagorean normalisation can silently commit a bad column when
	// cancellation makes ‖z‖² − Σh² ≤ 0 without the Krylov space actually
	// being exhausted — indistinguishable from a true happy breakdown at
	// that point. The safeguard is cycle-level: verify the claimed
	// residual against a true one, keep the best iterate seen, and stop
	// if restarts stop making progress.
	bestX := arena.Vec(n)
	copy(bestX, x)
	bestRes := math.Inf(1)
	stalls := 0
	for st.Iterations < opts.MaxIter && !st.Converged {
		if _, err := p1Cycle(c, a, b, x, bnorm, opts.Restart, opts, &st, ws); err != nil {
			return x, st, err
		}
		st.Restarts++
		trueRes, err := trueResidual(c, a, b, x, ws.w, ws.r, &st)
		if err != nil {
			return x, st, err
		}
		rel := trueRes / bnorm
		st.FinalResidual = rel
		if rel < bestRes {
			bestRes = rel
			copy(bestX, x)
			stalls = 0
		} else {
			stalls++
		}
		if rel <= 10*opts.Tol {
			st.Converged = true
			break
		}
		if stalls >= 2 {
			break // cancellation-stalled: return the best iterate
		}
	}
	if !st.Converged && bestRes < st.FinalResidual {
		copy(x, bestX)
		st.FinalResidual = bestRes
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}

// p1Workspace holds one DistP1GMRES solve's scratch: the two bases, the
// least-squares system and the merged-reduction buffers, carved once
// from the solve's borrowed arena so restart cycles and iterations are
// allocation-free (together with the recycled world-side collective
// buffers).
type p1Workspace struct {
	v, z    [][]float64
	ls      lsq
	q, w, r []float64
	locals  []float64 // posted local dots, length ≤ m+2
	red     []float64 // completed reduction landing buffer
	req     comm.Request
}

func carveP1Workspace(arena *mem.Workspace, n, m int) *p1Workspace {
	return &p1Workspace{
		v:      arena.Mat(m+1, n),
		z:      arena.Mat(m+2, n),
		ls:     carveLSQ(arena, m),
		q:      arena.Vec(n),
		w:      arena.Vec(n),
		r:      arena.Vec(n),
		locals: arena.Vec(m + 2),
		red:    arena.Vec(m + 2),
	}
}

// p1Cycle runs one restart cycle of p1-GMRES, updating x in place.
func p1Cycle(c *comm.Comm, a dist.Operator, b, x []float64, bnorm float64, m int, opts DistGMRESOptions, st *Stats, ws *p1Workspace) (bool, error) {
	n := a.LocalLen()
	r := ws.r
	beta, err := trueResidual(c, a, b, x, ws.w, r, st)
	if err != nil {
		return false, err
	}
	if beta/bnorm <= opts.Tol {
		st.FinalResidual = beta / bnorm
		return true, nil
	}

	v := ws.v // orthonormal basis (lags by one)
	z := ws.z // shifted basis, z[j+1] = A·v[j]
	h := ws.ls.h
	ws.ls.reset(beta)
	copy(v[0], r)
	dist.Scal(c, 1/beta, v[0])
	copy(z[0], v[0])

	var pending *comm.Request // reduction for z[i]'s coefficients
	q := ws.q
	cols := 0 // completed Hessenberg columns

	maxI := m
	for i := 0; i <= maxI; i++ {
		// SpMV on the newest shifted vector, overlapped with `pending`.
		if i <= m {
			if err := a.Apply(z[i], q); err != nil {
				return false, err
			}
		}

		if i > 0 {
			// Complete the reduction posted for z[i] last iteration:
			// dots = [(z_i,v_0)..(z_i,v_{i-1}), ‖z_i‖²].
			nres, err := pending.WaitInto(ws.red)
			if err != nil {
				return false, err
			}
			res := ws.red[:nres]
			sum2 := res[i]
			hcol := res[:i]
			ss := sum2
			for _, hv := range hcol {
				ss -= hv * hv
			}
			breakdown := ss <= 0 // Krylov space exhausted (or cancellation)
			hii := 0.0
			if !breakdown {
				hii = math.Sqrt(ss)
			}
			for j2 := 0; j2 < i; j2++ {
				h.Set(j2, i-1, hcol[j2])
			}
			h.Set(i, i-1, hii)

			if !breakdown {
				// v_i = (z_i − Σ h v_j)/h_ii ; z_{i+1} = (q − Σ h z_{j+1})/h_ii.
				vi := v[i]
				zi1 := z[i+1]
				copy(vi, z[i])
				copy(zi1, q)
				for j2 := 0; j2 < i; j2++ {
					la.Axpy(-hcol[j2], v[j2], vi)
					la.Axpy(-hcol[j2], z[j2+1], zi1)
				}
				la.Scal(1/hii, vi)
				la.Scal(1/hii, zi1)
				c.Compute(float64(4*i+2) * float64(n))
			}

			// Givens update of column i−1. On breakdown the column (with
			// h_ii = 0) is still recorded so the least-squares update
			// uses everything learned — discarding it could stall
			// forever on degenerate operators.
			relres := ws.ls.push(i-1) / bnorm
			cols = i
			st.Iterations++
			st.Residuals = append(st.Residuals, relres)
			st.FinalResidual = relres
			emitIteration(c, st.Iterations, relres)
			if relres <= opts.Tol || st.Iterations >= opts.MaxIter || breakdown {
				break
			}
		}

		if i < m {
			// Post the merged reduction for z[i+1]'s coefficients
			// (dots against v_0..v_i plus its own norm²). At this point
			// z[i+1] = q for i==... no: z[i+1] is set above for i>0; for
			// i==0 the shifted vector is exactly q = A·v_0.
			if i == 0 {
				copy(z[1], q)
			}
			locals := ws.locals[:i+2]
			for j2 := 0; j2 <= i; j2++ {
				locals[j2] = la.Dot(z[i+1], v[j2])
			}
			locals[i+1] = la.Dot(z[i+1], z[i+1])
			c.Compute(la.FlopsDot(n) * float64(i+2))
			c.StartAllreduce(locals, comm.OpSum, &ws.req)
			pending = &ws.req
			st.Reductions++
		} else {
			break
		}
	}

	if cols > 0 {
		y := ws.ls.solve(cols)
		for i := 0; i < cols; i++ {
			dist.Axpy(c, y[i], v[i], x)
		}
	}
	return st.FinalResidual <= opts.Tol, nil
}
