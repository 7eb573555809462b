// Package krylov implements the iterative solvers the paper's algorithm
// sections are built around: distributed CG and GMRES(m), the flexible
// variant FGMRES (the reliable outer solver of FT-GMRES, §III-D), and the
// latency-tolerant variants of §III-B — Ghysels–Vanroose pipelined CG and
// depth-1 pipelined GMRES (p1-GMRES, the paper's reference [11]) — which
// overlap global reductions with matrix-vector products using the
// non-blocking collectives of internal/comm. The serial stack is GMRES(m)
// and its flexible form FGMRES only: the substrate of the serial
// skeptical GMRES (internal/skp) and FT-GMRES (internal/srp).
package krylov

import (
	"math"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/obs"
)

// Op is a linear operator y = A·x for serial solvers. Implementations
// may be exact (CSROp), fault-injected (FaultyOp), or checked/corrected
// (the skeptical wrappers in internal/skp).
type Op interface {
	// Apply computes y = A·x into the caller-provided y, allocation-free,
	// which is what lets a warmed-up GMRES iteration run at 0 allocs/op.
	// Implementations must not retain x or y.
	Apply(x, y []float64)
	// Size returns the dimension.
	Size() int
	// NormInf returns an upper bound on ‖A‖∞ for skeptical bounds checks.
	NormInf() float64
}

// residualPrealloc bounds the upfront capacity of a Stats.Residuals
// history: solvers preallocate min(MaxIter, this) so the iteration loop
// is allocation-free for every realistic solve, while an "effectively
// unbounded" MaxIter (1<<30) does not commit gigabytes before the first
// iteration — beyond the bound the history grows by normal appends.
const residualPrealloc = 4096

// CSROp adapts a la.CSR to Op.
type CSROp struct {
	A *la.CSR

	norm     float64
	normDone bool
}

// NewCSROp wraps a sparse matrix.
func NewCSROp(a *la.CSR) *CSROp { return &CSROp{A: a} }

// Apply implements Op.
func (o *CSROp) Apply(x, y []float64) { o.A.MatVec(x, y) }

// Size implements Op.
func (o *CSROp) Size() int { return o.A.Rows }

// NormInf implements Op (cached).
func (o *CSROp) NormInf() float64 {
	if !o.normDone {
		o.norm = o.A.NormInf()
		o.normDone = true
	}
	return o.norm
}

// Preconditioner solves M·z = r approximately. FGMRES allows it to change
// between iterations, which is how FT-GMRES runs a whole unreliable inner
// solve per outer step.
type Preconditioner interface {
	// Solve computes z ≈ M⁻¹·r into the caller-provided z. r and z must
	// not alias.
	Solve(r, z []float64)
}

// DistPreconditioner is the distributed preconditioner contract the
// distributed solvers accept: ApplyInto computes z ≈ M⁻¹·r over this
// rank's slab, allocation-free in steady state, propagating
// communication errors unchanged. A nil DistPreconditioner always means
// the identity (an unpreconditioned solve). Every implementation in
// internal/precond satisfies this interface structurally — krylov and
// precond are sibling layers and deliberately do not import each other
// — as does the unreliable inner solver srp.DistInner, which is how a
// whole faulty inner solve becomes "just a preconditioner" (§III-D).
type DistPreconditioner interface {
	ApplyInto(r, z []float64) error
}

// mgs is the modified Gram–Schmidt step of the arnoldi engine (DistGMRES,
// through DistGMRESInner FT-GMRES's inner solves, and DistFGMRES): it
// orthogonalises w against v[0..j] in place, stores
// the projections in column j of h, and returns ‖w‖ — j+2 blocking
// reductions, the synchronisation hot spot §III-B criticises, under one
// orthogonalize span.
//
// Each subtraction w −= h_ij·v_i shares its pass over w with the next
// projection's local dot (la.AxpyDot against v[i+1], or against w
// itself for the closing norm), so a step reads w j+2 times instead of
// 2j+3. The arithmetic, the charges and their order relative to the
// reductions are exactly those of the unfused sequence dist.Dot,
// dist.Axpy, …, dist.Norm2 (kept as the reference in mgs_test.go):
// results, clocks and ledgers are bit-identical to it.
//
// Each fused pass goes through (*comm.Comm).Offload as k, the caller's
// job storage, so on a fat slab the world's other ranks run while a
// helper thread does it.
func mgs(c *comm.Comm, k *axpyDot, v [][]float64, w []float64, j int, h *la.Dense, st *Stats) (float64, error) {
	span := c.SpanStart()
	n := len(w)
	local := la.Dot(w, v[0])
	for i := 0; i <= j; i++ {
		c.Compute(la.FlopsDot(n))
		hij, err := c.AllreduceScalar(local, comm.OpSum)
		if err != nil {
			return 0, err
		}
		st.Reductions++
		h.Set(i, j, hij)
		next := w // after the last projection: the norm's w·w
		if i < j {
			next = v[i+1]
		}
		k.alpha, k.x, k.y, k.next = -hij, v[i], w, next
		c.Offload(n, k)
		local = k.dot
		c.Compute(la.FlopsAxpy(n))
	}
	c.Compute(la.FlopsDot(n))
	total, err := c.AllreduceScalar(local, comm.OpSum)
	if err != nil {
		return 0, err
	}
	st.Reductions++
	c.SpanEnd(obs.PhaseOrthogonalize, span)
	return math.Sqrt(total), nil
}

// axpyDot is mgs's fused pass as a comm.Job: y += alpha·x, then
// dot = next·y (la.AxpyDot).
type axpyDot struct {
	alpha      float64
	x, y, next []float64
	dot        float64
}

// Run implements comm.Job.
func (k *axpyDot) Run() { k.dot = la.AxpyDot(k.alpha, k.x, k.y, k.next) }

// cgs is the classical Gram–Schmidt step with the Pythagorean norm: all
// j+1 projections of w and ‖w‖² travel in one merged blocking reduction
// (through dots, scratch of length ≥ j+2), where mgs makes j+2. It
// orthogonalises w against v[0..j] in place, stores the projections in
// column j of h and returns the new vector's norm sqrt(‖w‖² − Σh²).
//
// A non-positive (or NaN) difference returns 0, which callers treat as
// happy breakdown — the Krylov space is exhausted, or cancellation ate
// the significand. Either way the column itself is valid with
// h_{j+1,j} = 0: the caller records it, updates x from the completed
// least-squares system and restarts from the improved iterate.
// Discarding the column instead could loop forever on degenerate
// operators (A ≈ I).
func cgs(c *comm.Comm, v [][]float64, w []float64, j int, h *la.Dense, dots []float64, st *Stats) (float64, error) {
	n := len(w)
	dots = dots[:j+2]
	for i := 0; i <= j; i++ {
		dots[i] = la.Dot(w, v[i])
	}
	dots[j+1] = la.Dot(w, w)
	c.Compute(la.FlopsDot(n) * float64(j+2))
	if err := c.AllreduceInto(dots, comm.OpSum, dots); err != nil {
		return 0, err
	}
	st.Reductions++
	ss := dots[j+1]
	for i := 0; i <= j; i++ {
		h.Set(i, j, dots[i])
		ss -= dots[i] * dots[i]
	}
	for i := 0; i <= j; i++ {
		la.Axpy(-dots[i], v[i], w)
	}
	c.Compute(la.FlopsAxpy(n) * float64(j+1))
	if ss > 0 {
		return math.Sqrt(ss), nil
	}
	return 0, nil
}

// Stats records a solve's trajectory for the experiment tables.
type Stats struct {
	Iterations    int       // total inner iterations performed
	Restarts      int       // GMRES restart cycles used
	Converged     bool      // reached the requested tolerance
	FinalResidual float64   // last (estimated) relative residual
	Residuals     []float64 // per-iteration relative residual history
	Anomalies     int       // skeptical-check hits observed via hooks
	VirtualTime   float64   // end-of-solve virtual clock (distributed only)
	Reductions    int       // number of global reductions (distributed only)
}
