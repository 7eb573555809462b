package krylov

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
)

// DistPCG is standard preconditioned conjugate gradients: per iteration
// one SpMV, one preconditioner application, and two blocking reductions —
// the synchronous baseline for DistPipelinedPCG. m is any
// DistPreconditioner (internal/precond's Jacobi, BlockJacobi or
// Chebyshev; nil for plain CG); for CG theory to hold it must be
// symmetric positive definite, and implementations charge their own
// flops to the cost model.
func DistPCG(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, opts DistOptions) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	ws := borrow(&st, 4*n, opts.MaxIter)
	defer release(ws, &st)

	r := ws.Vec(n)
	if err := a.Apply(x, r); err != nil {
		return x, st, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Compute(float64(n))
	z := ws.Vec(n)
	if err := applyDistPrecon(m, r, z); err != nil {
		return x, st, err
	}
	p := ws.Vec(n)
	copy(p, z)
	q := ws.Vec(n)
	rho, err := dist.Dot(c, r, z) // (r, M⁻¹r)
	if err != nil {
		return x, st, err
	}
	st.Reductions++

	for st.Iterations < opts.MaxIter {
		rr, err := dist.Dot(c, r, r)
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		relres := math.Sqrt(rr) / bnorm
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
		sigma, err := dist.Dot(c, p, q)
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
		if err := applyDistPrecon(m, r, z); err != nil {
			return x, st, err
		}
		rhoNew, err := dist.Dot(c, r, z)
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		beta := rhoNew / rho
		rho = rhoNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		c.Compute(2 * float64(n))
		st.Iterations++
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}

// DistPipelinedPCG is the full preconditioned Ghysels–Vanroose pipelined
// CG (their Algorithm 4): one SpMV, one preconditioner application, and a
// single merged non-blocking reduction per iteration, overlapped with
// both. Recurrences:
//
//	γᵢ = (rᵢ, uᵢ),  δᵢ = (wᵢ, uᵢ)        — the merged reduction
//	mᵢ = M⁻¹wᵢ ; nᵢ = A·mᵢ               — overlapped with it
//	βᵢ = γᵢ/γᵢ₋₁ ; αᵢ = γᵢ/(δᵢ − βᵢγᵢ/αᵢ₋₁)
//	zᵢ = nᵢ + βᵢzᵢ₋₁ ; qᵢ = mᵢ + βᵢqᵢ₋₁ ; sᵢ = wᵢ + βᵢsᵢ₋₁ ; pᵢ = uᵢ + βᵢpᵢ₋₁
//	x += αp ; r −= αs ; u −= αq ; w −= αz
//
// where u = M⁻¹r and w = A·u are maintained by recurrence. Convergence
// is monitored through an extra (r,r) term folded into the same merged
// reduction (3 scalars total — still one synchronisation). Only
// communication-free preconditioners (Jacobi, BlockJacobi) may be
// overlapped with the in-flight reduction; a halo-exchanging
// preconditioner would serialise against it.
func DistPipelinedPCG(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, opts DistOptions) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	ws := borrow(&st, 9*n+3, opts.MaxIter)
	defer release(ws, &st)

	r := ws.Vec(n)
	if err := a.Apply(x, r); err != nil {
		return x, st, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Compute(float64(n))
	u := ws.Vec(n)
	if err := applyDistPrecon(m, r, u); err != nil {
		return x, st, err
	}
	w := ws.Vec(n)
	if err := a.Apply(u, w); err != nil {
		return x, st, err
	}

	var (
		z  = ws.Vec(n)
		q  = ws.Vec(n)
		s  = ws.Vec(n)
		p  = ws.Vec(n)
		mm = ws.Vec(n) // m_i = M⁻¹ w_i
		nn = ws.Vec(n) // n_i = A m_i
	)
	var alpha, gammaOld float64
	var req comm.Request
	red := ws.Vec(3)

	for st.Iterations < opts.MaxIter {
		red[0] = la.Dot(r, u)
		red[1] = la.Dot(w, u)
		red[2] = la.Dot(r, r)
		c.Compute(la.FlopsDot(n) * 3)
		c.StartAllreduce(red, comm.OpSum, &req)
		st.Reductions++

		// Overlap: preconditioner + SpMV while the reduction flies.
		if err := applyDistPrecon(m, w, mm); err != nil {
			return x, st, err
		}
		if err := a.Apply(mm, nn); err != nil {
			return x, st, err
		}

		if _, err := req.WaitInto(red); err != nil {
			return x, st, err
		}
		gamma, delta, rr := red[0], red[1], red[2]

		relres := math.Sqrt(rr) / bnorm
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

		for i := 0; i < n; i++ {
			z[i] = nn[i] + beta*z[i]
			q[i] = mm[i] + beta*q[i]
			s[i] = w[i] + beta*s[i]
			p[i] = u[i] + beta*p[i]
			x[i] += alpha * p[i]
			r[i] -= alpha * s[i]
			u[i] -= alpha * q[i]
			w[i] -= alpha * z[i]
		}
		c.Compute(16 * float64(n))
		st.Iterations++
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}
