// Package dist is the distributed linear-algebra layer between the
// simulated MPI substrate (internal/comm) and the serial kernels
// (internal/la): block-row distributed operators with halo exchange,
// plus the distributed BLAS-1 reductions every Krylov solver is built
// from.
//
// The paper frames all of its resilience techniques as properties of
// distributed solvers, and this package is where their costs become
// visible:
//
//   - Norm2 and Dot are the *synchronization points* whose scaling the
//     Relaxed Bulk-Synchronous experiments (§II-B) measure — each is
//     exactly one Allreduce over the world;
//
//   - every operation propagates comm.ErrRankFailed / comm.ErrKilled
//     unchanged, so Local-Failure-Local-Recovery runtimes (§II-C) and
//     FT-GMRES (§III-D) observe process failure at the first
//     communication after the event;
//
//   - CSR.ApplyLocal recomputes a rank's slab from the still-valid
//     operand buffer with zero communication, the primitive Skeptical
//     Programming (§II-A) needs to correct a detected local fault
//     without touching the network;
//
//   - all operations charge the machine cost model through
//     (*comm.Comm).Compute, so virtual-time scaling results remain
//     meaningful.
//
// Operators are SPMD objects: every rank constructs the same operator
// from the same (replicated) global description, and Apply is a
// collective call — all ranks must call it in the same order, like an
// MPI program.
package dist

// Point-to-point tag ranges reserved by this package. Applications
// layered on top of dist (e.g. internal/lflr) use their own ranges.
const (
	tagCSRHalo = 7000 // CSR halo exchange, any neighbour
	tagS3Left  = 7100 // Stencil3 boundary value travelling to rank-1
	tagS3Right = 7101 // Stencil3 boundary value travelling to rank+1
	tagS5Up    = 7200 // Stencil5 boundary row travelling to rank-1
	tagS5Down  = 7201 // Stencil5 boundary row travelling to rank+1
)

// Operator is a distributed matrix: y = A·x where x and y are this
// rank's slabs of block-row distributed vectors. Apply is a collective
// operation (it may exchange halos) and returns comm.ErrRankFailed /
// comm.ErrKilled under the world's failure semantics. Wrappers add
// behaviour around a base operator: Faulty fires a fault plan's kills
// and flips at every apply, and skp.DistCheckedOp validates a product
// computed through a CSR (bare or behind a Faulty) against that CSR's
// checksums, recomputing the local rows when the check fails.
type Operator interface {
	// Apply computes y = A·x for this rank's slab. len(x) and len(y)
	// must equal LocalLen.
	Apply(x, y []float64) error
	// LocalLen returns the length of this rank's vector slab.
	LocalLen() int
	// GlobalLen returns the global vector length.
	GlobalLen() int
	// NormInf returns (an upper bound on) the global infinity norm of
	// the operator, used by skeptical norm-bound checks.
	NormInf() float64
}

// Partition is the 1D block-row decomposition of N items over P ranks:
// every rank owns a contiguous range, sizes differ by at most one, and
// lower ranks take the remainder. It is the single source of truth for
// ownership math — CSR, Stencil3 and Stencil5 all derive their layouts
// from it, so vectors scattered with one operator line up with any
// other operator over the same (N, P).
type Partition struct {
	N int // global item count
	P int // rank count
}

// Range returns the half-open ownership interval [lo, hi) of rank r.
func (pt Partition) Range(r int) (lo, hi int) {
	q, rem := pt.N/pt.P, pt.N%pt.P
	lo = r*q + min(r, rem)
	hi = lo + q
	if r < rem {
		hi++
	}
	return lo, hi
}

// Len returns the number of items rank r owns.
func (pt Partition) Len(r int) int {
	lo, hi := pt.Range(r)
	return hi - lo
}

// Owner returns the rank owning global index i.
func (pt Partition) Owner(i int) int {
	q, rem := pt.N/pt.P, pt.N%pt.P
	// The first rem ranks own q+1 items each.
	if cut := rem * (q + 1); i < cut {
		return i / (q + 1)
	} else {
		return rem + (i-cut)/q
	}
}

// checkWorld panics unless every rank can own at least one of the n
// items: neighbour-exchange operators identify halo partners by rank
// adjacency, which requires non-empty slabs (the same constraint the
// LFLR applications enforce).
func checkWorld(p, n int, what string) {
	if n < 1 {
		panic("dist: " + what + " needs at least one row")
	}
	if p > n {
		panic("dist: more ranks than " + what + " rows")
	}
}
