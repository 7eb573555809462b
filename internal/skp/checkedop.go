package skp

import "repro/internal/krylov"

// Policy selects what CheckedOp does when a check fires.
type Policy int

// Policies.
const (
	// DetectOnly counts the violation and passes the (corrupt) result
	// through — for measuring raw detection rates.
	DetectOnly Policy = iota
	// Correct recomputes the product through the trusted path and
	// returns the clean result — the skeptical "roll back to a previous
	// valid state" recovery, applicable because SDC is transient.
	Correct
)

// CheckedOp wraps a suspect operator with skeptical checks. The Trusted
// operator is the recompute path used by the Correct policy (in a real
// system: re-running the kernel, since transient faults do not repeat;
// here the clean operator models exactly that).
type CheckedOp struct {
	Suspect krylov.Op
	Trusted krylov.Op
	Checks  []Check
	Policy  Policy
	// CheckEvery amortises the validation cost: only every k-th apply is
	// checked (0 or 1 = every apply). The paper's §II-A suggests checking
	// "occasionally"; the price is detection latency — a fault in an
	// unchecked apply survives until it propagates into a checked one or
	// corrupts the solve. Use with solver-level checks as a second net.
	CheckEvery int
	Stats      CheckStats
}

// CheckStats counts what the skeptical layer saw.
type CheckStats struct {
	Applies     int
	Detections  int
	Corrections int
	// PerCheck counts detections by check name.
	PerCheck map[string]int
}

// NewCheckedOp builds a checked operator with the standard kernel suite
// (non-finite + norm bound derived from the trusted operator).
func NewCheckedOp(suspect, trusted krylov.Op, policy Policy) *CheckedOp {
	return &CheckedOp{
		Suspect: suspect,
		Trusted: trusted,
		Policy:  policy,
		Checks: []Check{
			NonFinite{},
			NormBound{ANormInf: trusted.NormInf()},
		},
		Stats: CheckStats{PerCheck: make(map[string]int)},
	}
}

// Apply implements krylov.Op: the suspect product lands in y, is
// validated, and under the Correct policy a detection recomputes y
// through the trusted path. The skeptical wrapper therefore adds zero
// allocations to a clean apply — the checks themselves are pure
// reductions over x and y.
func (o *CheckedOp) Apply(x, y []float64) {
	o.Stats.Applies++
	o.Suspect.Apply(x, y)
	if o.CheckEvery > 1 && o.Stats.Applies%o.CheckEvery != 0 {
		return
	}
	for _, chk := range o.Checks {
		if err := chk.Validate(x, y); err != nil {
			o.Stats.Detections++
			if o.Stats.PerCheck != nil {
				o.Stats.PerCheck[chk.Name()]++
			}
			if o.Policy == Correct {
				o.Stats.Corrections++
				o.Trusted.Apply(x, y)
			}
			return
		}
	}
}

// Size implements krylov.Op.
func (o *CheckedOp) Size() int { return o.Suspect.Size() }

// NormInf implements krylov.Op.
func (o *CheckedOp) NormInf() float64 { return o.Trusted.NormInf() }
