package krylov

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/mem"
)

// DistFGMRES is distributed flexible GMRES(m): right-preconditioned MGS
// Arnoldi where the preconditioner may change every iteration — which is
// how a whole (possibly unreliable) inner solve serves as M, making this
// the reliable outer solver of the distributed FT-GMRES in internal/srp.
//
// precon is any DistPreconditioner (internal/precond implementations,
// srp.DistInner, …); each iteration's application is stored, so unlike
// DistGMRES's fixed-M mode nothing requires the applications to be
// consistent with each other. nil falls back to opts.Precon, and if that
// is nil too the solve is plain DistGMRES mathematics with FGMRES
// storage.
func DistFGMRES(c *comm.Comm, a dist.Operator, precon DistPreconditioner, b, x0 []float64, opts DistGMRESOptions) ([]float64, Stats, error) {
	opts.defaults()
	if precon == nil {
		precon = opts.Precon
	}
	n := a.LocalLen()
	la.CheckLen("b", b, n)
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	var st Stats

	bnorm, err := dist.Norm2(c, b)
	if err != nil {
		return x, st, err
	}
	st.Reductions++
	if bnorm == 0 {
		st.Converged = true
		return x, st, nil
	}
	m := opts.Restart
	// Footprint: the Arnoldi basis v, the preconditioned basis z (only
	// when a preconditioner is present), and two scratch vectors — all
	// carved once so the iterations are allocation-free.
	zRows := 0
	if precon != nil {
		zRows = m
	}
	ws := mem.NewWorkspace((m + 3 + zRows) * n)
	v := ws.Mat(m+1, n)
	var z [][]float64
	if precon != nil {
		z = ws.Mat(m, n)
	}
	w := ws.Vec(n)
	r := ws.Vec(n)
	h := la.NewDense(m+1, m)
	g := make([]float64, m+1)
	rot := make([]la.Givens, m)
	y := make([]float64, m)
	st.Residuals = makeResidualHistory(opts.MaxIter)

	// A cycle abandoned at its first Arnoldi step adds no iteration, so
	// MaxIter alone does not bound a solve whose every cycle is corrupt
	// (a faulty operator can keep the iterate non-finite for good). Such
	// cycles draw on a budget of MaxIter of their own; every rank sees
	// the same reduced hj1, so all ranks give up together.
	stalled := 0
	for st.Iterations < opts.MaxIter && !st.Converged {
		before := st.Iterations
		if err := a.Apply(x, w); err != nil {
			return x, st, err
		}
		for i := range r {
			r[i] = b[i] - w[i]
		}
		c.Compute(float64(n))
		beta, err := dist.Norm2(c, r)
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		if beta/bnorm <= opts.Tol {
			st.Converged = true
			st.FinalResidual = beta / bnorm
			break
		}
		copy(v[0], r)
		dist.Scal(c, 1/beta, v[0])
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j := 0
		for ; j < m && st.Iterations < opts.MaxIter; j++ {
			zj := v[j]
			if precon != nil {
				if err := precon.ApplyInto(v[j], z[j]); err != nil {
					return x, st, err
				}
				zj = z[j]
			}
			if err := a.Apply(zj, w); err != nil {
				return x, st, err
			}
			hj1, err := mgs(c, v, w, j, h, &st)
			if err != nil {
				return x, st, err
			}
			if math.IsNaN(hj1) || math.IsInf(hj1, 0) {
				j = 0
				break
			}
			h.Set(j+1, j, hj1)
			if hj1 > 0 {
				copy(v[j+1], w)
				dist.Scal(c, 1/hj1, v[j+1])
			}
			for i := 0; i < j; i++ {
				a2, b2 := rot[i].Apply(h.At(i, j), h.At(i+1, j))
				h.Set(i, j, a2)
				h.Set(i+1, j, b2)
			}
			gv, rr := la.MakeGivens(h.At(j, j), h.At(j+1, j))
			rot[j] = gv
			h.Set(j, j, rr)
			h.Set(j+1, j, 0)
			g[j], g[j+1] = gv.Apply(g[j], g[j+1])

			st.Iterations++
			relres := math.Abs(g[j+1]) / bnorm
			st.Residuals = append(st.Residuals, relres)
			st.FinalResidual = relres
			emitIteration(c, st.Iterations, relres)
			if relres <= opts.Tol || hj1 == 0 {
				j++
				break
			}
		}
		if j > 0 {
			solveHessenbergInto(h, g, j, y[:j])
			dir := v
			if precon != nil {
				dir = z
			}
			for i := 0; i < j; i++ {
				dist.Axpy(c, y[i], dir[i], x)
			}
		}
		st.Restarts++
		if st.FinalResidual <= opts.Tol {
			st.Converged = true
		}
		if st.Iterations == before {
			if stalled++; stalled == opts.MaxIter {
				st.FinalResidual = math.Inf(1)
				break
			}
		}
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}
