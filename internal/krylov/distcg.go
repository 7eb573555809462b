package krylov

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/obs"
)

// DistOptions configures the distributed solvers.
type DistOptions struct {
	Tol     float64 // relative residual target (default 1e-8)
	MaxIter int     // iteration cap (default 500)
}

// emitIteration reports one solver iteration — its index and relative
// residual — on the rank's event stream. Every rank of an SPMD solve
// emits; consumers that want one progress line keep rank 0's.
func emitIteration(c *comm.Comm, iter int, relres float64) {
	c.Emit(obs.Event{Name: obs.EventIteration, Iter: iter, Value: relres})
}

func (o *DistOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
}

// DistCG is textbook distributed conjugate gradients: each iteration
// performs one SpMV and two *blocking* scalar all-reduces — the
// bulk-synchronous communication pattern whose scaling Section II-B of
// the paper warns about. It is the baseline of experiments F2/F3.
func DistCG(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistOptions) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	ws := borrow(&st, 3*n, opts.MaxIter)
	defer release(ws, &st)

	r := ws.Vec(n)
	if err := a.Apply(x, r); err != nil {
		return x, st, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Compute(float64(n))
	p := ws.Vec(n)
	copy(p, r)
	q := ws.Vec(n)
	rho, err := dist.Dot(c, r, r)
	if err != nil {
		return x, st, err
	}
	st.Reductions++

	for st.Iterations < opts.MaxIter {
		relres := math.Sqrt(rho) / bnorm
		st.Residuals = append(st.Residuals, relres)
		st.FinalResidual = relres
		emitIteration(c, st.Iterations, relres)
		if relres <= opts.Tol {
			st.Converged = true
			break
		}
		if err := a.Apply(p, q); err != nil {
			return x, st, err
		}
		sigma, err := dist.Dot(c, p, q) // blocking reduction #1
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		if sigma <= 0 {
			break
		}
		alpha := rho / sigma
		dist.Axpy(c, alpha, p, x)
		dist.Axpy(c, -alpha, q, r)
		rhoNew, err := dist.Dot(c, r, r) // blocking reduction #2
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		beta := rhoNew / rho
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		c.Compute(2 * float64(n))
		st.Iterations++
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}

// DistPipelinedCG is the Ghysels–Vanroose pipelined conjugate gradient
// (unpreconditioned form): per iteration it performs one SpMV and a
// single *non-blocking* two-scalar all-reduce that is overlapped with the
// SpMV — the Relaxed Bulk-Synchronous pattern of paper §II-B. The extra
// recurrences cost three more axpys per iteration; the payoff is that
// collective latency and noise-induced straggling hide behind useful
// work. Residuals match classic CG to rounding.
func DistPipelinedCG(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistOptions) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	ws := borrow(&st, 6*n+2, opts.MaxIter)
	defer release(ws, &st)

	// r = b − A·x; w = A·r.
	r := ws.Vec(n)
	if err := a.Apply(x, r); err != nil {
		return x, st, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Compute(float64(n))
	w := ws.Vec(n)
	if err := a.Apply(r, w); err != nil {
		return x, st, err
	}

	var (
		z = ws.Vec(n) // z_i = A·w recurrence
		q = ws.Vec(n) // A·p recurrence (s in the paper)
		p = ws.Vec(n)
		m = ws.Vec(n) // n_i = A·w_i result buffer
	)
	var alpha, gammaOld float64
	// One reusable request and reduction buffer: with the world-side
	// buffer recycling, the overlap loop allocates nothing per iteration.
	var req comm.Request
	red := ws.Vec(2)

	for st.Iterations < opts.MaxIter {
		// Merged local dots, posted as one non-blocking reduction.
		red[0] = la.Dot(r, r)
		red[1] = la.Dot(w, r)
		c.Compute(la.FlopsDot(n) * 2)
		c.StartAllreduce(red, comm.OpSum, &req)
		st.Reductions++

		// Overlapped SpMV: m = A·w while the reduction is in flight.
		if err := a.Apply(w, m); err != nil {
			return x, st, err
		}

		if _, err := req.WaitInto(red); err != nil {
			return x, st, err
		}
		gamma, delta := red[0], red[1]

		relres := math.Sqrt(gamma) / bnorm
		st.Residuals = append(st.Residuals, relres)
		st.FinalResidual = relres
		emitIteration(c, st.Iterations, relres)
		if relres <= opts.Tol {
			st.Converged = true
			break
		}

		var beta float64
		if st.Iterations > 0 {
			beta = gamma / gammaOld
			alpha = gamma / (delta - beta*gamma/alpha)
		} else {
			beta = 0
			alpha = gamma / delta
		}
		gammaOld = gamma

		// Recurrences (5 fused axpy-like updates).
		for i := 0; i < n; i++ {
			z[i] = m[i] + beta*z[i]
			q[i] = w[i] + beta*q[i]
			p[i] = r[i] + beta*p[i]
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
			w[i] -= alpha * z[i]
		}
		c.Compute(12 * float64(n))
		st.Iterations++
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}
