package krylov

import (
	"errors"
	"math"

	"repro/internal/la"
	"repro/internal/mem"
)

// GMRESOptions configures the serial GMRES(m) solver.
type GMRESOptions struct {
	Restart int     // m: restart length (default 30)
	Tol     float64 // relative residual target (default 1e-8)
	MaxIter int     // total iteration cap (default 1000)
	// ArnoldiHook, when non-nil, observes the Arnoldi state after each
	// step: the basis v[0..j+1] and the Hessenberg column j. The
	// skeptical layer uses it for orthogonality and Hessenberg-sanity
	// checks. Returning ErrRestartCycle abandons the current cycle
	// (discarding the possibly corrupted basis) and restarts from the
	// current iterate; any other non-nil error aborts the solve.
	ArnoldiHook func(j int, v [][]float64, h *la.Dense) error
	// Precon, when non-nil, turns the solver into right-preconditioned
	// flexible GMRES (FGMRES): the preconditioner may differ arbitrarily
	// between iterations, the property FT-GMRES depends on.
	Precon Preconditioner
}

// ErrRestartCycle is returned by an ArnoldiHook to request that GMRES
// discard the current (suspect) Krylov cycle and restart from the current
// iterate — the cheap recovery action of skeptical programming: roll back
// to the last known-valid state.
var ErrRestartCycle = errors.New("krylov: hook requested a cycle restart")

func (o *GMRESOptions) defaults() {
	if o.Restart <= 0 {
		o.Restart = 30
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
}

// GMRESWorkspace holds every scratch vector a GMRES(m) solve needs, so
// repeated solves — and every iteration within a solve — allocate
// nothing. The vectors are carved from a mem.Workspace, i.e. reliable
// storage in the paper's selective-reliability model: the Krylov basis
// and Hessenberg system are exactly the solver-critical data §II-D says
// must be reliable. Reuse a workspace only with the same problem size
// and options it was built for; a workspace is not safe for concurrent
// solves, and the Stats.Residuals slice returned by GMRESInto aliases it
// (copy the history before the next solve if you keep it).
type GMRESWorkspace struct {
	n, m, maxIter int

	vstore [][]float64 // m+1 basis slots (stable storage)
	zstore [][]float64 // m preconditioned-direction slots (FGMRES only)
	v      [][]float64 // active basis views; v[j] nil until committed
	ls     lsq
	w, r   []float64
	res    []float64 // residual-history backing array (cap bounded, see residualPrealloc)
}

// NewGMRESWorkspace sizes a workspace for n-dimensional solves under
// opts (Restart, MaxIter and Precon-presence determine the footprint).
func NewGMRESWorkspace(n int, opts GMRESOptions) *GMRESWorkspace {
	opts.defaults()
	m := opts.Restart
	elems := (m+1)*n + 2*n + lsqLen(m) // basis + w + r + least-squares system
	if opts.Precon != nil {
		elems += m * n
	}
	arena := mem.NewWorkspace(elems)
	ws := &GMRESWorkspace{
		n: n, m: m, maxIter: opts.MaxIter,
		vstore: arena.Mat(m+1, n),
		v:      make([][]float64, m+1),
		ls:     carveLSQ(arena, m),
		w:      arena.Vec(n),
		r:      arena.Vec(n),
		res:    make([]float64, 0, min(opts.MaxIter, residualPrealloc)),
	}
	if opts.Precon != nil {
		ws.zstore = arena.Mat(m, n)
	}
	return ws
}

// GMRES solves A·x = b with restarted GMRES(m) using modified
// Gram–Schmidt Arnoldi and Givens rotations, starting from x0 (nil for
// zero). With Precon set it is flexible GMRES. It returns the solution
// and solve statistics; it does not fail on stagnation, only reports
// Converged=false.
func GMRES(a Op, b []float64, x0 []float64, opts GMRESOptions) ([]float64, Stats, error) {
	opts.defaults()
	n := a.Size()
	x := make([]float64, n)
	if x0 != nil {
		la.CheckLen("x0", x0, n)
		copy(x, x0)
	}
	la.CheckLen("b", b, n)
	st, err := GMRESInto(a, b, x, NewGMRESWorkspace(n, opts), opts)
	return x, st, err
}

// GMRESInto is GMRES over caller-owned storage: x holds the initial
// guess on entry and the solution on return, and ws supplies every
// scratch vector, so a warmed-up solve performs zero allocations. ws
// must have been built by NewGMRESWorkspace with the same n and opts.
func GMRESInto(a Op, b, x []float64, ws *GMRESWorkspace, opts GMRESOptions) (Stats, error) {
	opts.defaults()
	n := a.Size()
	la.CheckLen("b", b, n)
	la.CheckLen("x", x, n)
	if ws.n != n || ws.m < opts.Restart {
		panic("krylov: GMRES workspace sized for a different problem")
	}
	if opts.Precon != nil && ws.zstore == nil {
		panic("krylov: GMRES workspace built without preconditioner slots")
	}
	var st Stats
	st.Residuals = ws.res[:0]

	bnorm := la.Nrm2(b)
	if bnorm == 0 {
		st.Converged = true
		return st, nil
	}
	m := opts.Restart
	v, h := ws.v, ws.ls.h

	// A cycle abandoned at its first step adds no iteration; such cycles
	// draw on the abandoned-cycle budget stated in arnoldi.
	abandoned := 0
	for st.Iterations < opts.MaxIter {
		before := st.Iterations
		// Residual for this cycle.
		a.Apply(x, ws.w)
		r := ws.r
		for i := range r {
			r[i] = b[i] - ws.w[i]
		}
		beta := la.Nrm2(r)
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			// The iterate is corrupt beyond repair (possible when the
			// operator itself is faulty, e.g. an SRP inner solve): stop
			// and report non-convergence; the caller sanitises.
			st.FinalResidual = math.Inf(1)
			return st, nil
		}
		relres := beta / bnorm
		st.FinalResidual = relres
		if relres <= opts.Tol {
			st.Converged = true
			return st, nil
		}
		// Fresh cycle: only v[0] is committed (nil slots preserve the
		// happy-breakdown signal the Arnoldi hooks rely on).
		for i := range v {
			v[i] = nil
		}
		copy(ws.vstore[0], r)
		la.Scal(1/beta, ws.vstore[0])
		v[0] = ws.vstore[0]
		ws.ls.reset(beta)

		j := 0
		for ; j < m && st.Iterations < opts.MaxIter; j++ {
			dir := v[j]
			if opts.Precon != nil {
				dir = ws.zstore[j]
				opts.Precon.Solve(v[j], dir)
			}
			w := ws.w
			a.Apply(dir, w)
			// Modified Gram–Schmidt.
			for i := 0; i <= j; i++ {
				hij := la.Dot(w, v[i])
				h.Set(i, j, hij)
				la.Axpy(-hij, v[i], w)
			}
			hj1 := la.Nrm2(w)
			if math.IsNaN(hj1) || math.IsInf(hj1, 0) {
				// Corrupted Arnoldi vector: abandon the cycle; the next
				// cycle recomputes a true residual (and bails out above
				// if the iterate itself is corrupt).
				j = 0
				break
			}
			h.Set(j+1, j, hj1)
			if hj1 > 0 {
				copy(ws.vstore[j+1], w)
				la.Scal(1/hj1, ws.vstore[j+1])
				v[j+1] = ws.vstore[j+1]
			}

			st.Iterations++
			relres = ws.ls.push(j) / bnorm
			st.Residuals = append(st.Residuals, relres)
			st.FinalResidual = relres
			if opts.ArnoldiHook != nil {
				if err := opts.ArnoldiHook(j, v, h); err != nil {
					if errors.Is(err, ErrRestartCycle) {
						// Discard this cycle: the basis is suspect. x is
						// untouched since the last update, so restarting
						// from it is a rollback to valid state.
						st.Anomalies++
						j = 0
						break
					}
					return st, err
				}
			}
			if relres <= opts.Tol || hj1 == 0 {
				j++
				break
			}
		}

		// Solve the j×j triangular system and update x.
		if j > 0 {
			y := ws.ls.solve(j)
			for i := 0; i < j; i++ {
				if opts.Precon != nil {
					la.Axpy(y[i], ws.zstore[i], x)
				} else {
					la.Axpy(y[i], v[i], x)
				}
			}
		}
		st.Restarts++
		if st.Iterations == before {
			if abandoned++; abandoned == opts.MaxIter {
				st.FinalResidual = math.Inf(1)
				return st, nil
			}
		}
		if st.FinalResidual <= opts.Tol {
			// Confirm with a true residual (protects against a corrupted
			// Givens recurrence claiming false convergence).
			a.Apply(x, ws.w)
			for i := range ws.r {
				ws.r[i] = b[i] - ws.w[i]
			}
			tr := la.Nrm2(ws.r) / bnorm
			st.FinalResidual = tr
			if tr <= 10*opts.Tol {
				st.Converged = true
				return st, nil
			}
		}
	}
	return st, nil
}
