// Package machine provides the virtual parallel-machine model that the
// resilience experiments run on: a deterministic pseudo-random number
// generator, a LogP-style communication/computation cost model,
// operating-system noise models, and per-rank virtual clocks.
//
// Everything in this package is deterministic given a seed, which is what
// makes fault-injection experiments and virtual-time scaling sweeps exactly
// reproducible across runs and platforms.
package machine

import "math"

// RNG is a deterministic SplitMix64 pseudo-random number generator.
//
// SplitMix64 passes BigCrush, needs only a single uint64 of state, and —
// unlike math/rand's global functions — two RNGs with the same seed always
// produce identical streams, independent of call interleaving across
// goroutines. Each simulated rank owns its own RNG so that fault injection
// and noise draws are reproducible regardless of goroutine scheduling.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed. Distinct seeds give
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new RNG derived from r's stream, suitable for handing to
// a child component (e.g. one per rank) without correlating the streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	u, next := r.Next()
	*r = next
	return u
}

// Next is Uint64 on a value: it returns the stream's next value and the
// generator advanced past it, so a loop that draws from a local copy
// keeps the state in a register instead of storing it per draw.
func (r RNG) Next() (uint64, RNG) {
	s := r.state + 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), RNG{state: s}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("machine: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Draw u1 in (0,1] to avoid log(0).
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1.0 - r.Float64())
}
