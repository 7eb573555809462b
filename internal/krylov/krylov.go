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
// reductions are exactly those of the unfused sequence of blocking dots,
// dist.Axpy, …, dist.Norm2 (kept as the reference in mgs_test.go):
// results, clocks and ledgers are bit-identical to it.
//
// The opening dot and each fused pass go through (*comm.Comm).Offload
// as k, the solve's job (see slabJob), so on a fat slab the world's
// other ranks run while a helper thread does them.
func mgs(c *comm.Comm, k *slabJob, v [][]float64, w []float64, j int, h *la.Dense, st *Stats) (float64, error) {
	span := c.SpanStart()
	n := len(w)
	local := k.dot(c, w, v[0])
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
		local = k.axpyDot(c, -hij, v[i], w, next)
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

// slabJob is the solvers' slab-sized vector work as one comm.Job: the
// kernels that read what the (offloaded) product wrote, so on a fat
// slab they run where the product ran rather than pulling its result
// across to the driver's core. A solve allocates one and every site
// reuses it; each method below loads one kernel, hands it to Offload
// with the slab's height and returns when it has run. Every kernel is
// the la call or loop it replaces, so results are bitwise the inline
// ones, and none charges: the caller's charges stay where they were.
type slabJob struct {
	op         slabOp
	alpha      float64
	x, y, u, v []float64
	sum        float64 // a dot's result
}

// slabOp says which kernel a slabJob runs.
type slabOp uint8

const (
	opDot     slabOp = iota // dot = x·y
	opAxpyDot               // y += alpha·x, then dot = u·y (la.AxpyDot)
	opAxpy2                 // y += alpha·x, then v −= alpha·u
	opXpby                  // y = x + alpha·y
	opScale                 // y = alpha·x
)

// Run implements comm.Job.
func (k *slabJob) Run() {
	switch k.op {
	case opDot:
		k.sum = la.Dot(k.x, k.y)
	case opAxpyDot:
		k.sum = la.AxpyDot(k.alpha, k.x, k.y, k.u)
	case opAxpy2:
		la.Axpy(k.alpha, k.x, k.y)
		la.Axpy(-k.alpha, k.u, k.v)
	case opXpby:
		x, y := k.x, k.y[:len(k.x)]
		for i := range y {
			y[i] = x[i] + k.alpha*y[i]
		}
	case opScale:
		x, y := k.x, k.y[:len(k.x)]
		for i, s := range x {
			y[i] = s * k.alpha
		}
	}
}

// run hands the loaded kernel to Offload.
func (k *slabJob) run(c *comm.Comm, op slabOp) {
	k.op = op
	c.Offload(len(k.x), k)
}

// dot returns the local x·y.
func (k *slabJob) dot(c *comm.Comm, x, y []float64) float64 {
	k.x, k.y = x, y
	k.run(c, opDot)
	return k.sum
}

// axpyDot sets y += alpha·x and returns the local u·y, in one pass.
func (k *slabJob) axpyDot(c *comm.Comm, alpha float64, x, y, u []float64) float64 {
	k.alpha, k.x, k.y, k.u = alpha, x, y, u
	k.run(c, opAxpyDot)
	return k.sum
}

// axpy2 sets y += alpha·x, then v −= alpha·u.
func (k *slabJob) axpy2(c *comm.Comm, alpha float64, x, y, u, v []float64) {
	k.alpha, k.x, k.y, k.u, k.v = alpha, x, y, u, v
	k.run(c, opAxpy2)
}

// xpby sets y = x + beta·y.
func (k *slabJob) xpby(c *comm.Comm, x []float64, beta float64, y []float64) {
	k.alpha, k.x, k.y = beta, x, y
	k.run(c, opXpby)
}

// scale sets y = alpha·x.
func (k *slabJob) scale(c *comm.Comm, alpha float64, x, y []float64) {
	k.alpha, k.x, k.y = alpha, x, y
	k.run(c, opScale)
}

// allDot returns the global x·y: the local dot, its charge and one
// blocking all-reduce, as dist.Norm2 makes them.
func (k *slabJob) allDot(c *comm.Comm, x, y []float64) (float64, error) {
	local := k.dot(c, x, y)
	c.Compute(la.FlopsDot(len(x)))
	return c.AllreduceScalar(local, comm.OpSum)
}

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
