// Package skp implements Skeptical Programming (paper §II-A): cheap
// runtime validation of mathematical invariants that algorithms normally
// assume implicitly, turning silent data corruption into detected —
// and often correctable — events.
//
// The package provides two layers:
//
//   - kernel-level checks on y = A·x products (non-finite screening and
//     the norm bound ‖A·x‖∞ ≤ ‖A‖∞·‖x‖∞), packaged in CheckedOp, which
//     can also *correct* a detected fault by recomputing through a
//     trusted path — the "recovery may be as simple as ... rolling back"
//     option of §II-A;
//
//   - solver-level checks for GMRES (basis orthogonality and Hessenberg
//     sanity, after the paper's reference [10]), packaged as an
//     ArnoldiHook that requests a cycle restart when the Krylov basis is
//     corrupted.
package skp

import (
	"fmt"

	"repro/internal/la"
)

// Check is one invariant on an operator application y = A·x.
type Check interface {
	// Validate returns a non-nil error describing the violation, or nil
	// if the invariant holds.
	Validate(x, y []float64) error
}

// NonFinite flags NaNs and infinities in the output — the cheapest
// possible skeptical check (one pass, no arithmetic).
type NonFinite struct{}

// Validate implements Check.
func (NonFinite) Validate(_, y []float64) error {
	if la.HasNonFinite(y) {
		return fmt.Errorf("skp: non-finite value in operator output")
	}
	return nil
}

// normSlack is NormBound's allowance for rounding: the factor by which
// ‖y‖∞ may exceed ‖A‖∞·‖x‖∞ before the check fires.
const normSlack = 4

// checksumTol is the relative tolerance of the checksum identity
// Σy = c·x, which Checksum and DistCheckedOp both check; the scale it
// multiplies grows with the length of x.
const checksumTol = 1e-10

// NormBound enforces ‖y‖∞ ≤ normSlack·‖A‖∞·‖x‖∞. The bound is a property
// of the intended operator, so a bit flip that inflates a value past the
// bound is caught regardless of where in the product it struck.
// Exponent-bit flips, the catastrophic class, almost always trip this
// check; low-mantissa flips usually do not — and usually do not matter,
// which is exactly the paper's point about "harmless" errors.
type NormBound struct {
	ANormInf float64
}

// Validate implements Check.
func (nb NormBound) Validate(x, y []float64) error {
	bound := normSlack * nb.ANormInf * la.NrmInf(x)
	if got := la.NrmInf(y); got > bound {
		return fmt.Errorf("skp: norm bound violated: ‖Ax‖∞=%g > %g", got, bound)
	}
	return nil
}

// Checksum is the ABFT-style skeptical check on y = A·x (paper §III-A:
// "the meta data used to recover state can also be used to detect
// anomalous behavior"): with the column sums c = eᵀA precomputed once,
// every product must satisfy Sum(y) = c·x. One extra O(n) dot product
// per apply detects a corrupted element in either direction — including
// the downward exponent flips that are invisible to NormBound.
type Checksum struct {
	ColSums []float64 // eᵀA, from la.CSR.ColSums
}

// Validate implements Check.
func (ck Checksum) Validate(x, y []float64) error {
	lhs := la.Sum(y)
	rhs := la.Dot(ck.ColSums, x)
	scale := la.NrmInf(x) * float64(len(x))
	if s := la.NrmInf(y); s > scale {
		scale = s
	}
	if scale == 0 {
		return nil
	}
	if diff := lhs - rhs; diff > checksumTol*scale || diff < -checksumTol*scale {
		return fmt.Errorf("skp: checksum violated: Σy=%g vs c·x=%g", lhs, rhs)
	}
	return nil
}
