package precond

import (
	"errors"

	"repro/internal/comm"
)

// Preconditioner approximately inverts an operator: ApplyInto computes
// z ≈ M⁻¹·r for this rank's slab of a block-row distributed vector.
// Implementations are SPMD objects (see the package comment); whether an
// application communicates is implementation-defined — Jacobi and
// BlockJacobi are communication-free, Chebyshev exchanges halos — but
// none of them performs global reductions.
type Preconditioner interface {
	// Setup (re)builds the internal factorisation or scratch state. It
	// must be called once before the first ApplyInto and again whenever
	// the underlying operator changes. Collective: every rank calls it.
	// Numerical breakdown (zero pivot, invalid spectral bounds) is
	// reported as an error, never a panic.
	Setup() error

	// ApplyInto computes z ≈ M⁻¹·r into the caller-provided z, with
	// zero heap allocations in steady state. r and z must not alias.
	// Communication errors (comm.ErrRankFailed, comm.ErrKilled)
	// propagate unchanged.
	ApplyInto(r, z []float64) error

	// Flops returns the floating-point work one ApplyInto charges to
	// the machine cost model directly (operator applications inside a
	// polynomial preconditioner meter themselves on top of this).
	Flops() float64
}

// ErrNotSetup is returned by ApplyInto when Setup has not run (or has
// not run since construction).
var ErrNotSetup = errors.New("precond: Setup must be called before ApplyInto")

// kernel is a preconditioner's slab work as a comm.Job, so a fat rank
// can hand it to (*comm.Comm).Offload: Run calls p.slab over the r and z
// last set. It is a field of the preconditioner, whose slab touches only
// that rank's own vectors and storage and never calls back into its Comm.
type kernel struct {
	p    interface{ slab(r, z []float64) }
	r, z []float64
}

// Run implements comm.Job.
func (k *kernel) Run() { k.p.slab(k.r, k.z) }

// offload runs p's slab over r and z through c.Offload, with n the slab
// height.
func (k *kernel) offload(c *comm.Comm, n int, r, z []float64) {
	k.r, k.z = r, z
	c.Offload(n, k)
}
