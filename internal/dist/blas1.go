package dist

import (
	"math"

	"repro/internal/comm"
	"repro/internal/la"
)

// The distributed BLAS-1 layer. Norm2 is a bulk-synchronous reduction
// point of every Krylov iteration — it costs exactly one blocking
// all-reduce (as does each solver's distributed dot, which krylov makes
// itself so that its local half can be offloaded), which is what the RBSP experiments (§II-B) count
// and what the pipelined solvers restructure around StartAllreduce and
// WaitInto to avoid. Scal and Axpy are embarrassingly parallel: they
// touch only the local slab and charge the cost model, never the
// network.

// Norm2 returns the global Euclidean norm of the distributed vector
// whose local slab is v. One Allreduce — which is the point: the cost
// of a distributed norm IS one synchronization, so no scaled two-pass
// accumulation à la la.Nrm2 is possible without doubling it. The
// trade-off is range: local sums of squares overflow/underflow at
// ~1e±154, unlike the serial la.Nrm2. The solvers here normalise
// their vectors, so the single reduction wins.
func Norm2(c *comm.Comm, v []float64) (float64, error) {
	local := la.Dot(v, v)
	c.Compute(la.FlopsDot(len(v)))
	total, err := c.AllreduceScalar(local, comm.OpSum)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(total), nil
}

// Scal scales the local slab v by alpha in place. Purely local.
func Scal(c *comm.Comm, alpha float64, v []float64) {
	la.Scal(alpha, v)
	c.Compute(float64(len(v)))
}

// Axpy computes y += alpha·x on the local slabs in place. Purely local.
func Axpy(c *comm.Comm, alpha float64, x, y []float64) {
	la.Axpy(alpha, x, y)
	c.Compute(la.FlopsAxpy(len(x)))
}
