package comm

import (
	"repro/internal/machine"
	"repro/internal/obs"
)

// Comm is one rank's handle to the world: its identity, virtual clock,
// deterministic RNG, and the communication operations. A Comm is used
// only by the rank function it was handed to — same as an MPI rank.
type Comm struct {
	world  *World
	rank   int
	yield  func(struct{}) bool // suspend this rank's coroutine; false once the driver stopped it
	halted error               // set once the driver unwound this rank; every later operation returns it
	rng    *machine.RNG
	epoch  int
	seq    int // collective sequence number within the current epoch
	clock  machine.Clock
	stats  Stats
	waited float64    // cumulative virtual seconds spent blocked behind slower ranks
	sbuf   [1]float64 // scratch for allocation-free scalar reductions
}

// Stats accumulates per-rank activity counters, used by the experiment
// harness to report communication/computation breakdowns.
type Stats struct {
	Sends      int
	Recvs      int
	Collective int
	Flops      float64
	NoiseTime  float64 // virtual seconds lost to injected jitter
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// World returns the world this rank belongs to (for cost-model access by
// system services such as the LFLR persistent store).
func (c *Comm) World() *World { return c.world }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.n }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock.Now() }

// Stats returns a copy of the rank's activity counters.
func (c *Comm) Stats() Stats { return c.stats }

// Compute advances the rank's virtual clock by the cost of flops
// floating-point operations plus any jitter drawn from the world's noise
// model. It never fails: computation on a dead rank is unreachable
// because every communication operation has already returned ErrKilled.
func (c *Comm) Compute(flops float64) {
	d := c.world.cost.Compute(flops)
	noise := c.world.noise.Draw(c.rng, d)
	c.clock.Advance(d + noise)
	c.stats.Flops += flops
	c.stats.NoiseTime += noise
}

// AdvanceClock adds raw virtual seconds to the rank's clock. It models
// costs outside the flop model (e.g. a local disk write in a
// checkpointing experiment).
func (c *Comm) AdvanceClock(seconds float64) { c.clock.Advance(seconds) }

// Emit reports one event to the world's Config.Observer, stamped with
// this rank and — for everything but spans, whose T is their start —
// its current virtual clock. Without an observer it is a no-op with
// zero allocations, so layers holding a *Comm report unconditionally.
func (c *Comm) Emit(ev obs.Event) {
	if c.world.observer == nil {
		return
	}
	ev.Rank = c.rank
	if ev.Name != obs.EventSpan {
		ev.T = c.clock.Now()
	}
	c.world.observer(ev)
}

// SpanStart opens a phase span: it returns the rank's current virtual
// clock, to be handed back to SpanEnd when the phase closes. It is a
// pure clock read — free whether or not an observer is attached — so
// instrumented hot loops pay nothing when tracing is off.
func (c *Comm) SpanStart() float64 { return c.clock.Now() }

// SpanEnd closes a phase span opened at start, emitting the interval
// [start, now] under the given phase name (the obs.Phase* catalogue)
// with no wait attributed. Call it only on success paths: an operation
// that failed mid-phase has no meaningful duration.
func (c *Comm) SpanEnd(phase string, start float64) {
	if c.world.spans {
		c.endSpan(phase, start, c.waited)
	}
}

// WaitMark returns the rank's cumulative wait time: the virtual seconds
// it has spent blocked behind slower participants — at collectives,
// lagging behind the last poster; at receives, ahead of the message's
// arrival. Like SpanStart it is a pure field read, so hot loops can
// bracket an operation with WaitMark/SpanEndWait for free when no
// observer is attached. The counter is monotone within one world; the
// difference of two marks is the wait accrued between them.
func (c *Comm) WaitMark() float64 { return c.waited }

// SpanEndWait closes a phase span opened at start like SpanEnd, but
// additionally attributes the wait accrued since mark (a WaitMark taken
// alongside SpanStart) to the span — the share of [start, now] this
// rank spent blocked behind the slowest participant rather than doing
// its own work.
func (c *Comm) SpanEndWait(phase string, start, mark float64) {
	if c.world.spans {
		c.endSpan(phase, start, mark)
	}
}

// endSpan is the observed half of SpanEnd/SpanEndWait, kept out of
// line so the unobserved half inlines to one flag test in hot loops:
// it stages the span's length in the world's phase tally and emits the
// span event to its observer, each when present.
func (c *Comm) endSpan(phase string, start, mark float64) {
	dur := c.clock.Now() - start
	c.world.phases.Observe(phase, dur)
	if c.world.observer != nil {
		c.world.observer(obs.Event{Name: obs.EventSpan, Rank: c.rank, T: start, Dur: dur, Wait: c.waited - mark, Detail: phase})
	}
}

// Die marks this rank failed, waking every blocked operation in the world
// so survivors observe the failure. It returns ErrKilled, which the
// rank's main loop is expected to propagate out of its rank function.
// This is the cooperative form of failure used by deterministic
// experiments ("rank 5 dies at step 250"); World.Kill is the external
// form.
func (c *Comm) Die() error {
	c.world.Kill(c.rank)
	return ErrKilled
}

// Park suspends this rank until the driver (or another rank) calls
// World.Release on it: the way a rank hands control to a supervisor —
// Wait returns once every rank has parked or finished — and waits for
// its verdict. Failures do not wake a parked rank. Park returns nil when
// released, and the world's halt error if Wait unwound the world
// (deadlock, or another rank's panic) while the rank was parked.
func (c *Comm) Park() error { return c.block(rankParked, waitFor{}) }

// block suspends the rank in the given state until something makes it
// runnable again. A non-nil error means the driver is unwinding the
// world: the caller must return it.
func (c *Comm) block(st rankState, on waitFor) error {
	if c.halted == nil {
		rk := &c.world.ranks[c.rank]
		rk.state, rk.on = st, on
		if !c.yield(struct{}{}) {
			c.halted = c.world.halt
		}
	}
	return c.halted
}

// JoinEpoch moves this rank into epoch e (obtained from World.Repair)
// after a failure, resetting its collective sequence counter. All
// surviving ranks and the respawned rank must join the same epoch before
// communicating again.
func (c *Comm) JoinEpoch(e int) {
	c.epoch = e
	c.seq = 0
}

// checkAlive classifies the rank's ability to communicate. It returns
// the halt error if the driver has unwound this rank, ErrKilled if this
// rank has failed, ErrRankFailed if some other rank has failed and the
// world has not been repaired (or if this rank has not yet joined the
// current epoch after a repair), and nil otherwise.
func (c *Comm) checkAlive() error {
	w := c.world
	switch {
	case c.halted != nil:
		return c.halted
	case w.failed[c.rank]:
		return ErrKilled
	case w.revoked || c.epoch != w.epoch:
		return ErrRankFailed
	}
	return nil
}
