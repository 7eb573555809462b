// Package fault is the reproduction's one fault model. The paper's two
// kinds of fault — soft (a flipped bit in IEEE-754 float64 data) and
// hard (a dead process) — are entries of a Plan: what × rank × site ×
// occurrence. A Run fires a plan over one world, and each rank consults
// it through its Injector where a site's work happens (dist.Faulty,
// precond.Faulty, krylov.FaultyOp and the LFLR time stepper). Every draw
// comes from a stream seeded by the plan, so a given seed reproduces the
// identical fault pattern — the property that makes the paper's "silent
// data corruption" experiments (§III-A) repeatable.
package fault

import (
	"math"

	"repro/internal/machine"
)

// BitClass partitions the 64 bits of a float64 by how catastrophic a flip
// there typically is, following the taxonomy of the GMRES bit-flip study
// the paper cites ([10], Elliott et al.): exponent flips change magnitude
// by factors of 2^k and are usually devastating; high-mantissa flips cause
// relative errors up to 2^-1; low-mantissa flips are often harmless noise.
type BitClass int

// Bit classes, from most to least catastrophic on average.
const (
	// Sign is bit 63.
	Sign BitClass = iota
	// Exponent is bits 52..62.
	Exponent
	// MantissaHigh is bits 26..51 (the upper half of the significand).
	MantissaHigh
	// MantissaLow is bits 0..25.
	MantissaLow
	// AnyBit draws uniformly over all 64 bits.
	AnyBit
)

// String returns the class name used in experiment tables.
func (b BitClass) String() string {
	switch b {
	case Sign:
		return "sign"
	case Exponent:
		return "exponent"
	case MantissaHigh:
		return "mantissa-high"
	case MantissaLow:
		return "mantissa-low"
	case AnyBit:
		return "any"
	default:
		return "unknown"
	}
}

// PickBit draws a bit position within the class using rng.
func (b BitClass) PickBit(rng *machine.RNG) int {
	switch b {
	case Sign:
		return 63
	case Exponent:
		return 52 + rng.Intn(11)
	case MantissaHigh:
		return 26 + rng.Intn(26)
	case MantissaLow:
		return rng.Intn(26)
	case AnyBit:
		return rng.Intn(64)
	default:
		panic("fault: unknown bit class")
	}
}

// FlipBit returns x with the given bit (0 = least significant) inverted.
// This is the fundamental silent-data-corruption event.
func FlipBit(x float64, bit int) float64 {
	if bit < 0 || bit > 63 {
		panic("fault: bit out of range")
	}
	return math.Float64frombits(math.Float64bits(x) ^ (1 << uint(bit)))
}

// PoissonProcess generates failure inter-arrival times with the given
// mean (MTBF), for checkpoint/restart simulations (experiment F5).
type PoissonProcess struct {
	MTBF float64
	rng  *machine.RNG
}

// NewPoissonProcess returns a process with the given mean time between
// failures, seeded deterministically.
func NewPoissonProcess(mtbf float64, seed uint64) *PoissonProcess {
	return &PoissonProcess{MTBF: mtbf, rng: machine.NewRNG(seed)}
}

// Next returns the time until the next failure.
func (p *PoissonProcess) Next() float64 {
	return p.MTBF * p.rng.ExpFloat64()
}
