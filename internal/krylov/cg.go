package krylov

import (
	"math"

	"repro/internal/la"
)

// CGOptions configures the serial conjugate-gradient solver.
type CGOptions struct {
	Tol     float64 // relative residual target (default 1e-8)
	MaxIter int     // iteration cap (default 1000)
	Hook    IterationHook
}

func (o *CGOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
}

// CG solves A·x = b for symmetric positive definite A with the conjugate
// gradient method, starting from x0 (nil for zero).
func CG(a Op, b []float64, x0 []float64, opts CGOptions) ([]float64, Stats, error) {
	opts.defaults()
	n := a.Size()
	la.CheckLen("b", b, n)
	x := make([]float64, n)
	if x0 != nil {
		la.CheckLen("x0", x0, n)
		copy(x, x0)
	}
	var st Stats

	bnorm := la.Nrm2(b)
	if bnorm == 0 {
		st.Converged = true
		return x, st, nil
	}
	// All scratch is allocated once up front (residual history included),
	// so the iteration loop itself is allocation-free for InPlaceOp
	// operators.
	r := make([]float64, n)
	applyOp(a, x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	p := la.Copy(r)
	q := make([]float64, n)
	rho := la.Dot(r, r)
	st.Residuals = make([]float64, 0, min(opts.MaxIter, residualPrealloc))

	for st.Iterations < opts.MaxIter {
		relres := math.Sqrt(rho) / bnorm
		st.Residuals = append(st.Residuals, relres)
		st.FinalResidual = relres
		if opts.Hook != nil {
			if err := opts.Hook(st.Iterations, relres); err != nil {
				return x, st, err
			}
		}
		if relres <= opts.Tol {
			st.Converged = true
			return x, st, nil
		}
		applyOp(a, p, q)
		sigma := la.Dot(p, q)
		if sigma <= 0 {
			// Not SPD (or corrupted); stop rather than diverge silently.
			return x, st, nil
		}
		alpha := rho / sigma
		la.Axpy(alpha, p, x)
		la.Axpy(-alpha, q, r)
		rhoNew := la.Dot(r, r)
		beta := rhoNew / rho
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		st.Iterations++
	}
	st.FinalResidual = math.Sqrt(rho) / bnorm
	st.Converged = st.FinalResidual <= opts.Tol
	return x, st, nil
}
