package krylov

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/mem"
)

// cgKind says which member of the CG family one pcg or pipelinedPCG call
// is. Like arnoldiKind it is not an option: the four exported entry
// points (DistCG, DistPCG, DistPipelinedCG, DistPipelinedPCG) each
// construct exactly one value, and nothing else does.
type cgKind struct {
	// m is the preconditioner; nil means the identity, applied as a copy.
	m DistPreconditioner
	// plain knows M = I: each preconditioned vector is its unpreconditioned
	// twin itself (z is r in pcg; u is r, m is w and s is q in
	// pipelinedPCG), so nothing is copied, and γ = (r, r) is already the
	// residual norm² — no separate (r, r) term is reduced.
	plain bool
}

// DistPCG is standard preconditioned conjugate gradients: per iteration
// one SpMV, one preconditioner application, and two blocking reductions —
// the synchronous baseline for DistPipelinedPCG. m is any
// DistPreconditioner (internal/precond's Jacobi, BlockJacobi or
// Chebyshev; nil for the identity, which reproduces DistCG's iterates
// bit for bit at one more reduction per iteration); for CG theory to
// hold it must be symmetric positive definite, and implementations
// charge their own flops to the cost model.
func DistPCG(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, opts DistOptions) ([]float64, Stats, error) {
	return pcg(c, a, b, x0, opts, cgKind{m: m})
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
func DistPipelinedPCG(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, opts DistOptions) ([]float64, Stats, error) {
	return pipelinedPCG(c, a, b, x0, opts, cgKind{m: m})
}

// residual carves r = b − A·x from ws and returns it with M⁻¹r, carved
// beside it — or r itself for a plain kind.
func (k cgKind) residual(c *comm.Comm, a dist.Operator, b, x []float64, ws *mem.Workspace) (r, z []float64, err error) {
	r = ws.Vec(len(x))
	if err := a.Apply(x, r); err != nil {
		return nil, nil, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Compute(float64(len(r)))
	if k.plain {
		return r, r, nil
	}
	z = ws.Vec(len(r))
	return r, z, k.precon(r, z)
}

// precon computes z = M⁻¹r: nothing for a plain kind, whose z is r, and
// a copy for a nil m. r and z must not otherwise alias.
func (k cgKind) precon(r, z []float64) error {
	switch {
	case k.plain:
		return nil
	case k.m == nil:
		copy(z, r)
		return nil
	}
	return k.m.ApplyInto(r, z)
}

// pcg is the one classic (P)CG loop. A preconditioned iteration makes
// three blocking reductions — (r, r) for the convergence test, (p, A·p)
// and (r, M⁻¹r); a plain one makes two, since its (r, M⁻¹r) is (r, r).
func pcg(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistOptions, kind cgKind) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	vecs := 4
	if kind.plain {
		vecs = 3
	}
	ws := borrow(&st, vecs*n, opts.MaxIter)
	defer release(ws, &st)

	r, z, err := kind.residual(c, a, b, x, ws)
	if err != nil {
		return x, st, err
	}
	p := ws.Vec(n)
	copy(p, z)
	q := ws.Vec(n)
	k := new(slabJob) // the loop's vector work, as an Offload job

	rho, err := k.allDot(c, r, z) // (r, M⁻¹r)
	if err != nil {
		return x, st, err
	}
	st.Reductions++

	for st.Iterations < opts.MaxIter {
		rr := rho
		if !kind.plain {
			if rr, err = k.allDot(c, r, r); err != nil {
				return x, st, err
			}
			st.Reductions++
		}
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
		sigma, err := k.allDot(c, p, q)
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		if sigma <= 0 {
			break
		}
		alpha := rho / sigma
		k.axpy2(c, alpha, p, x, q, r) // x += αp; r −= αq
		c.Compute(la.FlopsAxpy(n))
		c.Compute(la.FlopsAxpy(n))
		if err := kind.precon(r, z); err != nil {
			return x, st, err
		}
		rhoNew, err := k.allDot(c, r, z)
		if err != nil {
			return x, st, err
		}
		st.Reductions++
		beta := rhoNew / rho
		rho = rhoNew
		k.xpby(c, z, beta, p)
		c.Compute(2 * float64(n))
		st.Iterations++
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}

// pipelinedPCG is the one pipelined (P)CG loop (see DistPipelinedPCG).
// A plain iteration reduces two scalars, γ and δ, and runs the six-vector
// recurrence (12n flops); a preconditioned one reduces a third, (r, r),
// and updates eight vectors (16n flops).
func pipelinedPCG(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistOptions, kind cgKind) (x []float64, st Stats, err error) {
	opts.defaults()
	var bnorm float64
	if x, bnorm, st, err = start(c, a, b, x0); err != nil || st.Converged {
		return x, st, err
	}
	n := len(x)
	vecs, dots := 9, 3
	if kind.plain {
		vecs, dots = 6, 2
	}
	ws := borrow(&st, vecs*n+dots, opts.MaxIter)
	defer release(ws, &st)

	// r = b − A·x; u = M⁻¹r; w = A·u.
	r, u, err := kind.residual(c, a, b, x, ws)
	if err != nil {
		return x, st, err
	}
	w := ws.Vec(n)
	if err := a.Apply(u, w); err != nil {
		return x, st, err
	}

	var (
		z  = ws.Vec(n) // A·q recurrence
		q  = ws.Vec(n) // M⁻¹·s recurrence
		s  = q         // A·p recurrence
		p  = ws.Vec(n)
		mm = w         // m_i = M⁻¹ w_i
		nn = ws.Vec(n) // n_i = A m_i
	)
	if !kind.plain {
		s, mm = ws.Vec(n), ws.Vec(n)
	}
	var alpha, gammaOld float64
	// One reusable request and reduction buffer: with the world-side
	// buffer recycling, the overlap loop allocates nothing per iteration.
	var req comm.Request
	red := ws.Vec(dots)

	for st.Iterations < opts.MaxIter {
		// Merged local dots, posted as one non-blocking reduction.
		red[0] = la.Dot(r, u)
		red[1] = la.Dot(w, u)
		if !kind.plain {
			red[2] = la.Dot(r, r)
		}
		c.Compute(la.FlopsDot(n) * float64(dots))
		c.StartAllreduce(red, comm.OpSum, &req)
		st.Reductions++

		// Overlap: preconditioner + SpMV while the reduction flies.
		if err := kind.precon(w, mm); err != nil {
			return x, st, err
		}
		if err := a.Apply(mm, nn); err != nil {
			return x, st, err
		}

		if _, err := req.WaitInto(red); err != nil {
			return x, st, err
		}
		gamma, delta, rr := red[0], red[1], red[0]
		if !kind.plain {
			rr = red[2]
		}

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
			alpha = gamma / delta
		}
		gammaOld = gamma

		if kind.plain {
			for i := 0; i < n; i++ {
				z[i] = nn[i] + beta*z[i]
				q[i] = w[i] + beta*q[i]
				p[i] = r[i] + beta*p[i]
				x[i] += alpha * p[i]
				r[i] -= alpha * q[i]
				w[i] -= alpha * z[i]
			}
			c.Compute(12 * float64(n))
		} else {
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
		}
		st.Iterations++
	}
	st.VirtualTime = c.Clock()
	return x, st, nil
}
