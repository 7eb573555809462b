package machine

import "math"

// Noise models operating-system and error-correction jitter: the
// performance variability that Section II-B of the paper identifies as the
// first casualty of decreasing hardware reliability. A Noise
// implementation returns the extra virtual time (seconds) to add to a
// compute phase whose nominal duration is d seconds.
//
// Implementations must be pure functions of (rng, d) so that experiments
// stay deterministic under a fixed seed.
type Noise interface {
	// Draw returns extra delay (>= 0) for a compute phase of nominal
	// duration d, using the per-rank rng.
	Draw(rng *RNG, d float64) float64
	// Name identifies the model in experiment tables.
	Name() string
}

// NoNoise is the ideal machine: equal work takes equal time.
type NoNoise struct{}

// Draw always returns 0.
func (NoNoise) Draw(*RNG, float64) float64 { return 0 }

// Name implements Noise.
func (NoNoise) Name() string { return "none" }

// BernoulliSpike models infrequent, large detours — e.g. an ECC scrub,
// page migration, or OS daemon — the canonical "noise" in the noise
// amplification literature. With probability P per compute phase the
// phase is extended by Magnitude times its nominal duration.
type BernoulliSpike struct {
	P         float64 // probability a compute phase is hit
	Magnitude float64 // spike length as a multiple of the phase duration
}

// Draw implements Noise.
func (n BernoulliSpike) Draw(rng *RNG, d float64) float64 {
	if rng.Float64() < n.P {
		return n.Magnitude * d
	}
	return 0
}

// Name implements Noise.
func (n BernoulliSpike) Name() string { return "bernoulli" }

// FixedSpike models OS/system-service noise the way the noise literature
// does: interruptions of *fixed* duration (a daemon runs for 25 µs no
// matter what it interrupted) arriving as a Poisson process in compute
// time with the given rate. Unlike BernoulliSpike — whose cost scales
// with the interrupted phase and therefore penalises fused kernels — this
// model is invariant to how a solver slices its computation, which makes
// it the right choice for comparing synchronisation structures (F3/T2).
type FixedSpike struct {
	Rate     float64 // arrivals per second of compute time
	Duration float64 // seconds per interruption
}

// Draw implements Noise: the number of arrivals during a phase of
// duration d is Poisson with mean Rate·d, so total expected noise is
// invariant to how computation is sliced into phases.
func (n FixedSpike) Draw(rng *RNG, d float64) float64 {
	lam := n.Rate * d
	if lam <= 0 {
		return 0
	}
	var k int
	switch {
	case lam < 0.01:
		// Cheap Bernoulli approximation, exact to O(lam²).
		if rng.Float64() < lam {
			k = 1
		}
	case lam < 30:
		// Knuth's product method.
		limit := math.Exp(-lam)
		p := rng.Float64()
		for p > limit {
			k++
			p *= rng.Float64()
		}
	default:
		// Normal approximation for large means.
		k = int(lam + math.Sqrt(lam)*rng.NormFloat64() + 0.5)
		if k < 0 {
			k = 0
		}
	}
	return float64(k) * n.Duration
}

// Name implements Noise.
func (n FixedSpike) Name() string { return "fixed-spike" }

// UniformJitter models bounded per-phase slowdown: every compute phase
// is extended by a uniform draw in [0, Frac·d]. It is the simplest
// noise family with a hard worst case — the model the campaign engine's
// noise axis exposes, because a bounded envelope keeps the virtual-time
// distributions of noisy cells directly comparable to their clean
// twins (the spread is attributable, never heavy-tailed).
type UniformJitter struct {
	Frac float64 // maximum extra delay as a fraction of the phase duration
}

// Draw implements Noise.
func (n UniformJitter) Draw(rng *RNG, d float64) float64 {
	if n.Frac <= 0 {
		return 0
	}
	return n.Frac * d * rng.Float64()
}

// Name implements Noise.
func (n UniformJitter) Name() string { return "uniform" }
