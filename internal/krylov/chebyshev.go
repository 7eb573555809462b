package krylov

import (
	"math"

	"repro/internal/dist"
	"repro/internal/la"

	"repro/internal/comm"
)

// ChebyshevOptions configures the distributed Chebyshev iteration.
type ChebyshevOptions struct {
	LambdaMin, LambdaMax float64 // eigenvalue bounds of the SPD operator
	Tol                  float64 // relative residual target (default 1e-8)
	MaxIter              int     // iteration cap (default 500)
	CheckEvery           int     // residual-norm reduction every k iters (default 20)
}

func (o *ChebyshevOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 20
	}
}

// DistChebyshev solves A·x = b for SPD A with known eigenvalue bounds
// using the Chebyshev semi-iteration (Saad, Iterative Methods, alg.
// 12.1). Its resilience significance: the recurrence needs *no inner
// products at all* — the only global reductions are the occasional
// convergence checks — making it the zero-synchronisation extreme of the
// latency-tolerance spectrum in experiment A1. The price is needing
// spectral bounds and a convergence rate tied to their quality.
func DistChebyshev(c *comm.Comm, a dist.Operator, b, x0 []float64, opts ChebyshevOptions) (x []float64, st Stats, err error) {
	opts.defaults()
	if opts.LambdaMin <= 0 || opts.LambdaMax <= opts.LambdaMin {
		panic("krylov: Chebyshev needs 0 < LambdaMin < LambdaMax")
	}
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	// One history entry per convergence check, not per iteration.
	ws := borrow(&st, 3*n, opts.MaxIter/opts.CheckEvery+1)
	defer release(ws, &st)

	theta := (opts.LambdaMax + opts.LambdaMin) / 2
	delta := (opts.LambdaMax - opts.LambdaMin) / 2
	sigma1 := theta / delta

	r := ws.Vec(n)
	if err := a.Apply(x, r); err != nil {
		return x, st, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Compute(float64(n))

	rho := 1 / sigma1
	d := ws.Vec(n)
	for i := range d {
		d[i] = r[i] / theta
	}
	c.Compute(float64(n))
	ad := ws.Vec(n)

	for st.Iterations < opts.MaxIter {
		la.Axpy(1, d, x)
		c.Compute(la.FlopsAxpy(n))
		if err := a.Apply(d, ad); err != nil {
			return x, st, err
		}
		la.Axpy(-1, ad, r)
		c.Compute(la.FlopsAxpy(n))

		rhoNew := 1 / (2*sigma1 - rho)
		coefD := rhoNew * rho
		coefR := 2 * rhoNew / delta
		for i := range d {
			d[i] = coefD*d[i] + coefR*r[i]
		}
		c.Compute(3 * float64(n))
		rho = rhoNew
		st.Iterations++

		if st.Iterations%opts.CheckEvery == 0 || st.Iterations == opts.MaxIter {
			nrm, err := dist.Norm2(c, r)
			if err != nil {
				return x, st, err
			}
			st.Reductions++
			relres := nrm / bnorm
			st.Residuals = append(st.Residuals, relres)
			st.FinalResidual = relres
			if relres <= opts.Tol {
				st.Converged = true
				break
			}
			if math.IsNaN(relres) || math.IsInf(relres, 0) {
				break
			}
		}
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}
