package fault

import "repro/internal/machine"

// VectorInjector corrupts float64 vectors as they stream through an
// instrumented operation (typically the output of a sparse matrix-vector
// product, the dominant kernel of a Krylov solver). Two modes compose:
//
//   - a one-shot targeted flip: "at iteration K, flip one bit of class C
//     in a random element" — the single-event-upset scenario of the
//     paper's §III-A;
//
//   - a rate process: every element of every pass is independently
//     corrupted with probability Rate — the sustained-unreliability
//     scenario of Selective Reliability (§II-D/III-D).
//
// The zero value injects nothing.
type VectorInjector struct {
	// One-shot targeted flip.
	AtIteration int      // iteration to strike (used when Enabled)
	Class       BitClass // bit class to draw from
	Enabled     bool     // arm the one-shot flip

	// Sustained corruption.
	Rate float64 // per-element probability of a flip per pass

	rng    *machine.RNG
	iter   int
	fired  bool
	events []Event
}

// NewVectorInjector returns an injector drawing from its own stream
// seeded by seed.
func NewVectorInjector(seed uint64) *VectorInjector {
	return &VectorInjector{rng: machine.NewRNG(seed)}
}

// OneShot arms a single flip of class at iteration iter.
func (in *VectorInjector) OneShot(iter int, class BitClass) *VectorInjector {
	in.Enabled = true
	in.AtIteration = iter
	in.Class = class
	return in
}

// WithRate sets the sustained per-element corruption probability.
func (in *VectorInjector) WithRate(rate float64) *VectorInjector {
	in.Rate = rate
	return in
}

// Pass corrupts v in place according to the injector's configuration and
// advances the iteration counter. It returns the number of faults
// injected during this pass.
func (in *VectorInjector) Pass(v []float64) int {
	if in == nil {
		return 0
	}
	faults := 0
	if in.Enabled && !in.fired && in.iter == in.AtIteration && len(v) > 0 {
		idx := in.rng.Intn(len(v))
		bit := in.Class.PickBit(in.rng)
		old := v[idx]
		v[idx] = FlipBit(old, bit)
		in.events = append(in.events, Event{Iteration: in.iter, Index: idx, Bit: bit, Old: old, New: v[idx]})
		in.fired = true
		faults++
	}
	if in.Rate > 0 {
		for i := range v {
			if in.rng.Float64() < in.Rate {
				bit := AnyBit.PickBit(in.rng)
				old := v[i]
				v[i] = FlipBit(old, bit)
				in.events = append(in.events, Event{Iteration: in.iter, Index: i, Bit: bit, Old: old, New: v[i]})
				faults++
			}
		}
	}
	in.iter++
	return faults
}

// Events returns the log of injected faults.
func (in *VectorInjector) Events() []Event {
	if in == nil {
		return nil
	}
	return in.events
}

// Fired reports whether the armed one-shot flip has been delivered.
func (in *VectorInjector) Fired() bool { return in != nil && in.fired }

// Reset rewinds the iteration counter and re-arms the one-shot flip,
// keeping the RNG state (each trial sees fresh random draws).
func (in *VectorInjector) Reset() {
	in.iter = 0
	in.fired = false
	in.events = nil
}

// StepKiller schedules the death of one rank at one time step: the
// deterministic process-failure scenario of the LFLR experiments
// (§III-C). ShouldDie is queried by the application at step boundaries.
type StepKiller struct {
	Rank int
	Step int
	used bool
}

// ShouldDie reports whether the given rank must die at the given step.
// It fires at most once. Only the victim rank ever touches the used
// flag, and the victim's replacement is spawned only after the original
// has returned, so its read of used is ordered after the write.
func (k *StepKiller) ShouldDie(rank, step int) bool {
	if k == nil || rank != k.Rank {
		return false
	}
	if k.used || step != k.Step {
		return false
	}
	k.used = true
	return true
}

// Schedule composes several kill events (distinct ranks/steps) into one
// killer, for multi-failure LFLR scenarios. The zero value kills nobody.
type Schedule struct {
	Kills []StepKiller
}

// ShouldDie reports whether any scheduled event fires for (rank, step).
func (s *Schedule) ShouldDie(rank, step int) bool {
	if s == nil {
		return false
	}
	for i := range s.Kills {
		if s.Kills[i].ShouldDie(rank, step) {
			return true
		}
	}
	return false
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
