package skp

import "repro/internal/krylov"

// CheckedOp wraps a suspect operator with skeptical checks. A detection
// recomputes the product through the Trusted operator — the skeptical
// "roll back to a previous valid state" recovery, applicable because SDC
// is transient (in a real system: re-running the kernel, since transient
// faults do not repeat; here the clean operator models exactly that).
type CheckedOp struct {
	Suspect krylov.Op
	Trusted krylov.Op
	Checks  []Check
	Stats   CheckStats
}

// CheckStats counts what the skeptical layer saw.
type CheckStats struct {
	Detections  int
	Corrections int
}

// NewCheckedOp builds a checked operator with the standard kernel suite
// (non-finite + norm bound derived from the trusted operator).
func NewCheckedOp(suspect, trusted krylov.Op) *CheckedOp {
	return &CheckedOp{
		Suspect: suspect,
		Trusted: trusted,
		Checks: []Check{
			NonFinite{},
			NormBound{ANormInf: trusted.NormInf()},
		},
	}
}

// Apply implements krylov.Op: the suspect product lands in y, is
// validated, and a detection recomputes y through the trusted path. The
// skeptical wrapper therefore adds zero allocations to a clean apply —
// the checks themselves are pure reductions over x and y.
func (o *CheckedOp) Apply(x, y []float64) {
	o.Suspect.Apply(x, y)
	for _, chk := range o.Checks {
		if err := chk.Validate(x, y); err != nil {
			o.Stats.Detections++
			o.Stats.Corrections++
			o.Trusted.Apply(x, y)
			return
		}
	}
}

// Size implements krylov.Op.
func (o *CheckedOp) Size() int { return o.Suspect.Size() }

// NormInf implements krylov.Op.
func (o *CheckedOp) NormInf() float64 { return o.Trusted.NormInf() }
