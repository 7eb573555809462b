package precond

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/obs"
)

// Jacobi is diagonal scaling z_i = r_i / a_ii over this rank's slab:
// the cheapest preconditioner, zero communication, effective exactly
// when the operator's difficulty is a badly scaled diagonal.
type Jacobi struct {
	c    *comm.Comm
	diag []float64 // local diagonal slab of the global matrix
	inv  []float64 // 1/diag, built by Setup
	kern kernel    // the scaling as an Offload job
}

// NewJacobi builds the Jacobi preconditioner for the replicated global
// matrix a (the SPMD convention: every rank passes the same matrix and
// keeps only its Partition slab). Call Setup before the first use.
func NewJacobi(c *comm.Comm, a *la.CSR) *Jacobi {
	if a.Rows != a.Cols {
		panic("precond: Jacobi needs a square matrix")
	}
	pt := dist.Partition{N: a.Rows, P: c.Size()}
	lo, hi := pt.Range(c.Rank())
	diag := make([]float64, hi-lo)
	for i := range diag {
		diag[i] = a.At(lo+i, lo+i)
	}
	j := &Jacobi{c: c, diag: diag}
	j.kern.p = j
	return j
}

// Setup implements Preconditioner: precomputes the reciprocals. The
// reciprocals go into fresh storage, so re-running Setup can never
// mutate values previously shared through Export.
func (j *Jacobi) Setup() error {
	inv := make([]float64, len(j.diag))
	for i, v := range j.diag {
		if v == 0 {
			j.inv = nil
			return fmt.Errorf("precond: zero diagonal at local row %d", i)
		}
		inv[i] = 1 / v
	}
	j.inv = inv
	j.c.Compute(float64(len(j.diag)))
	return nil
}

// ApplyInto implements Preconditioner: z = D⁻¹·r, purely local.
func (j *Jacobi) ApplyInto(r, z []float64) error {
	if j.inv == nil {
		return ErrNotSetup
	}
	start := j.c.SpanStart()
	la.CheckLen("r", r, len(j.inv))
	la.CheckLen("z", z, len(j.inv))
	j.kern.offload(j.c, len(r), r, z)
	j.c.Compute(j.Flops())
	j.c.SpanEnd(obs.PhasePrecondApply, start)
	return nil
}

// slab is kern's work: z = r·D⁻¹, element by element.
func (j *Jacobi) slab(r, z []float64) {
	inv := j.inv[:len(r)]
	for i := range r {
		z[i] = r[i] * inv[i]
	}
}

// Flops implements Preconditioner: one multiply per local row.
func (j *Jacobi) Flops() float64 { return float64(len(j.diag)) }
