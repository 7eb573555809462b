package skp

import (
	"math"

	"repro/internal/dist"
	"repro/internal/la"
)

// DistCheckedOp wraps a distributed block-row SpMV with the local ABFT
// checksum: each rank validates Σ(y_local) against colsums·[x|ghosts] for
// its own slab. Because block-row checksums decompose over ranks, the
// validation needs *zero extra communication* — skeptical programming at
// scale costs one local dot product per apply. A detected fault is
// corrected by recomputing the local SpMV (the halo values are still in
// the trusted slab's buffer, so even the recompute stays
// communication-free).
type DistCheckedOp struct {
	// Suspect computes the product that gets validated: Trusted itself,
	// or a dist.Faulty over it, whose flips stand in for hardware SDC in
	// the local kernel. Either way its halo exchange fills Trusted's
	// buffer, which the checksum and the recompute read.
	Suspect dist.Operator
	Trusted *dist.CSR

	colSums []float64
	Stats   CheckStats
}

// NewDistCheckedOp builds the wrapper, precomputing the slab checksums
// of trusted; suspect must apply through trusted (see Suspect).
func NewDistCheckedOp(suspect dist.Operator, trusted *dist.CSR) *DistCheckedOp {
	return &DistCheckedOp{
		Suspect: suspect,
		Trusted: trusted,
		colSums: trusted.LocalColSums(),
	}
}

// Apply implements dist.Operator with local validation and correction.
func (o *DistCheckedOp) Apply(x, y []float64) error {
	if err := o.Suspect.Apply(x, y); err != nil {
		return err
	}
	if o.validate(y) {
		return nil
	}
	// Detected: the fault is transient, so recomputing the local rows
	// from the (still valid) operand buffer repairs it. The buffer holds
	// owned + ghost values, so no re-communication is needed.
	o.Stats.Detections++
	o.Trusted.ApplyLocal(y)
	if o.validate(y) {
		o.Stats.Corrections++
		return nil
	}
	// A second failure would mean a persistent fault; report upward by
	// leaving the detection counted without a correction.
	return nil
}

// validate checks the local block-row checksum identity.
func (o *DistCheckedOp) validate(y []float64) bool {
	xb := o.Trusted.XBuffer()
	lhs := la.Sum(y)
	rhs := la.Dot(o.colSums, xb)
	scale := math.Max(math.Abs(lhs), math.Abs(rhs))
	if s := la.NrmInf(xb) * float64(len(xb)); s > scale {
		scale = s
	}
	if scale == 0 {
		return true
	}
	return math.Abs(lhs-rhs) <= checksumTol*scale
}

// LocalLen implements dist.Operator.
func (o *DistCheckedOp) LocalLen() int { return o.Trusted.LocalLen() }

// GlobalLen implements dist.Operator.
func (o *DistCheckedOp) GlobalLen() int { return o.Trusted.GlobalLen() }

// NormInf implements dist.Operator.
func (o *DistCheckedOp) NormInf() float64 { return o.Trusted.NormInf() }
