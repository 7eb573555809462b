package krylov

import (
	"repro/internal/comm"
	"repro/internal/dist"
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
func DistCG(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistOptions) ([]float64, Stats, error) {
	return pcg(c, a, b, x0, opts, cgKind{plain: true})
}

// DistPipelinedCG is the Ghysels–Vanroose pipelined conjugate gradient
// (unpreconditioned form): per iteration it performs one SpMV and a
// single *non-blocking* two-scalar all-reduce that is overlapped with the
// SpMV — the Relaxed Bulk-Synchronous pattern of paper §II-B. The extra
// recurrences cost three more axpys per iteration; the payoff is that
// collective latency and noise-induced straggling hide behind useful
// work. Residuals match classic CG to rounding.
func DistPipelinedCG(c *comm.Comm, a dist.Operator, b, x0 []float64, opts DistOptions) ([]float64, Stats, error) {
	return pipelinedPCG(c, a, b, x0, opts, cgKind{plain: true})
}
