// Package comm is a simulated MPI: a fixed set of ranks exchanging
// messages and running collectives over a deterministic virtual-time
// cost model (see internal/machine).
//
// The package provides the two MPI capabilities the paper identifies as
// resilience enablers:
//
//   - MPI-3 style non-blocking collectives (IAllreduce), whose
//     virtual-time semantics reward overlapping computation with
//     communication — the substrate for Relaxed Bulk-Synchronous
//     Programming (paper §II-B);
//
//   - ULFM-style process failure semantics (Die/Kill, ErrRankFailed,
//     failure agreement, respawn into the failed rank's slot) — the
//     substrate for Local-Failure-Local-Recovery (paper §II-C).
//
// Virtual time, not wall-clock, is the performance metric: each rank
// carries a machine.Clock that advances with modelled compute and
// communication costs, so scaling experiments over thousands of ranks run
// deterministically on any host.
//
// A world is a run-to-block cooperative simulation: every rank is a
// coroutine, and World.Wait is the driver that resumes one rank at a
// time, in FIFO order of becoming runnable, until it blocks in a
// receive, a collective wait, Park or Offload. So a world needs no
// locks, and every interleaving — including which survivor operation
// first observes a failure — is a pure function of the program.
// Parallelism lives across worlds: any number may run at once, each
// driven (with its Comms) from one goroutine at a time. Inside a world
// the one exception is Offload: a rank whose slab has at least
// OffloadRows rows hands a kernel that touches only its own memory to
// the helper thread and yields, and the driver runs the other ranks
// meanwhile. The rank yields whether or not the helper takes the job, so
// the interleaving stays the program's; the helper sees only job memory.
package comm

import (
	"errors"
	"fmt"
	"iter"
	"strings"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Errors returned by communication operations after a failure event.
var (
	// ErrRankFailed is returned to surviving ranks when an operation
	// cannot complete because some rank in the world has failed. It is
	// the moral equivalent of ULFM's MPI_ERR_PROC_FAILED.
	ErrRankFailed = errors.New("comm: a rank has failed")

	// ErrKilled is returned to the failed rank itself from whatever
	// operation it is in when its own failure takes effect, and from all
	// of its subsequent operations. Application main loops treat it as
	// "this process is dead" and unwind.
	ErrKilled = errors.New("comm: this rank has been killed")

	// ErrDeadlock is reported by Wait and Run when no rank is runnable
	// yet some rank is blocked in a receive or collective: nothing left
	// in the world can complete it. The wrapping message names each
	// blocked rank and what it waits for; the pending operation of every
	// suspended rank returns the same error, so the rank functions
	// unwind and no coroutine outlives Wait.
	ErrDeadlock = errors.New("comm: deadlock")

	// errAborted is what pending operations return when Wait unwinds
	// because another rank panicked.
	errAborted = errors.New("comm: world aborted by a panicking rank")
)

// Config describes a simulated world.
type Config struct {
	Ranks  int               // number of ranks (processes)
	Cost   machine.CostModel // communication/computation cost model
	Noise  machine.Noise     // per-compute-phase jitter model; nil = none
	Seed   uint64            // master seed; per-rank RNGs derive from it
	Ledger *Ledger           // optional cross-world activity aggregation

	// Observer, if non-nil, receives every event the world's ranks
	// emit through (*Comm).Emit: closed phase spans from the
	// instrumented operations and whatever point events the layers
	// holding a *Comm report (solver iterations, fault injections,
	// discards, rank kills). It is called on the emitting rank, so one
	// world's events arrive one at a time in one deterministic order; a
	// sink shared by several worlds still hears those worlds at once
	// and keeps its own lock. It may not call back into the world.
	// Observation is read-only — it never advances a clock or touches
	// an RNG — so a world with an observer computes bit-identical
	// results to one without.
	Observer func(obs.Event)

	// Phases, if non-nil, stages the length of every phase span the
	// world's ranks close (SpanEnd, SpanEndWait), beside the observer
	// rather than through it: a world that only feeds per-phase
	// histograms keeps no observer, so Emit stays a nil check. The
	// world runs one rank at a time, so the tally needs no lock; its
	// owner flushes it once the world is done.
	Phases obs.PhaseTally
}

// rankState is where one rank stands with the driver.
type rankState uint8

const (
	rankDone    rankState = iota // never spawned, or its function has returned
	rankReady                    // queued in the ready ring, or running
	rankBlocked                  // suspended in a receive or collective wait
	rankParked                   // suspended in Park until Release
)

// waitFor is what a blocked rank waits for: the deadlock report prints
// it, and Send and collective completion match on it so a wake-up is
// one precise enqueue rather than a broadcast.
type waitFor struct {
	slot     *collSlot // collective wait; nil for a receive
	src, tag int       // receive wait
}

// rankSlot is one rank's coroutine and scheduling state.
type rankSlot struct {
	resume func() (struct{}, bool) // iter.Pull's next: run the rank until it blocks or returns
	stop   func()                  // iter.Pull's stop: make the rank's pending block fail
	state  rankState
	on     waitFor
	job    jobSlot // the kernel an Offload left behind, if any
}

// World is a set of simulated ranks plus the shared machinery they
// communicate through. Create one with NewWorld, then either call Spawn
// for each rank function and Wait, or use the Run convenience wrapper.
type World struct {
	n     int
	cost  machine.CostModel
	noise machine.Noise

	failed  []bool // failed[r]: rank r is dead
	revoked bool   // a failure has been noticed and not yet repaired
	epoch   int    // incremented by Repair; isolates collective matching

	ranks  []rankSlot
	ready  []int32 // FIFO ring of runnable ranks; a rank is queued at most once
	head   int
	nready int
	halt   error // why stopAll unwound the pending ranks

	queues [][]message // per-destination-rank mailboxes
	pool   bufPool     // recycled point-to-point payloads
	// colls holds the current epoch's open collective slots: colls[i] is
	// the slot of sequence number collBase+i, nil once its last rank has
	// left. A post always lands in the current epoch, so the epoch needs
	// no index, and blocking collectives keep at most two slots open.
	// Retired slots wait in slotPool, with their storage, for reuse.
	colls    []*collSlot
	collBase int
	slotPool []*collSlot

	ledger   *Ledger
	observer func(obs.Event)
	phases   obs.PhaseTally
	spans    bool // observer or phases is set: a span end has work to do
	procs    int  // GOMAXPROCS as read in this Wait; 0 until an Offload needs it
	seedRNG  *machine.RNG
	errs     []error // exit error per rank (most recent spawn)
}

// NewWorld creates a world of cfg.Ranks ranks. It panics if Ranks < 1.
func NewWorld(cfg Config) *World {
	if cfg.Ranks < 1 {
		panic("comm: world needs at least one rank")
	}
	if cfg.Noise == nil {
		cfg.Noise = machine.NoNoise{}
	}
	w := &World{
		n:        cfg.Ranks,
		cost:     cfg.Cost,
		noise:    cfg.Noise,
		failed:   make([]bool, cfg.Ranks),
		ranks:    make([]rankSlot, cfg.Ranks),
		ready:    make([]int32, cfg.Ranks),
		queues:   make([][]message, cfg.Ranks),
		ledger:   cfg.Ledger,
		observer: cfg.Observer,
		phases:   cfg.Phases,
		spans:    cfg.Observer != nil || cfg.Phases != nil,
		seedRNG:  machine.NewRNG(cfg.Seed ^ 0xda3e39cb94b95bdb),
		errs:     make([]error, cfg.Ranks),
	}
	if w.ledger != nil {
		w.ledger.noteWorld()
	}
	return w
}

// Size returns the number of ranks in the world (failed ranks included:
// a respawn reuses the failed rank's slot, so Size is constant).
func (w *World) Size() int { return w.n }

// Cost returns the world's cost model.
func (w *World) Cost() machine.CostModel { return w.cost }

// Spawn registers fn as rank r's coroutine and queues it to run at the
// next Wait. The rank's virtual clock starts at startTime (0 for an
// initial launch; a respawn passes the failure-repair time). Spawn
// panics if r is out of range or rank r's previous function has not
// returned.
func (w *World) Spawn(r int, startTime float64, fn func(c *Comm) error) {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("comm: spawn of rank %d in world of size %d", r, w.n))
	}
	rk := &w.ranks[r]
	if rk.state != rankDone {
		panic(fmt.Sprintf("comm: spawn of rank %d, which is still running", r))
	}
	c := &Comm{world: w, rank: r, rng: w.seedRNG.Split(), epoch: w.epoch}
	c.clock.SyncTo(startTime)
	rk.resume, rk.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		err := fn(c)
		if w.ledger != nil {
			w.ledger.noteRankExit(c.stats, c.clock.Now())
		}
		w.errs[r] = err
		rk.state = rankDone
	})
	w.errs[r] = nil
	w.makeReady(r)
}

// makeReady appends rank r to the ready ring. Callers guarantee r is not
// already queued: it is freshly spawned, blocked or parked, or it is
// the running rank queueing itself behind an Offload before it yields.
func (w *World) makeReady(r int) {
	w.ranks[r].state = rankReady
	at := w.head + w.nready
	if at >= w.n {
		at -= w.n
	}
	w.ready[at] = int32(r)
	w.nready++
}

// wakeBlocked makes every rank suspended in a receive or collective
// runnable, so it re-evaluates the world's failure state. Parked ranks
// stay parked: only Release resumes them.
func (w *World) wakeBlocked() {
	for r := range w.ranks {
		if w.ranks[r].state == rankBlocked {
			w.makeReady(r)
		}
	}
}

// Release makes rank r, suspended in Park, runnable again; it resumes at
// the next Wait (or, when called by a running rank, once its turn in the
// ready ring comes). Release panics if r is not parked.
func (w *World) Release(r int) {
	if w.ranks[r].state != rankParked {
		panic(fmt.Sprintf("comm: release of rank %d, which is not parked", r))
	}
	w.makeReady(r)
}

// Wait drives the world: it resumes runnable ranks one at a time, FIFO,
// each until it blocks or returns, and comes back when none is runnable
// — every spawned rank has returned or sits in Park. It returns the exit
// errors indexed by rank (nil for a clean exit, a parked rank or one
// never spawned); the slice is the world's own, overwritten by later
// Spawns and Waits. Wait allocates nothing, so a parked world can be
// stepped (Release, Wait) inside an allocation-gated loop.
//
// If the ready ring drains while some rank is still blocked in a
// receive or collective, nothing can ever wake it: Wait unwinds every
// suspended rank and each blocked rank's entry reports ErrDeadlock. A
// panic in a rank function surfaces from Wait, on the driving
// goroutine, after the other ranks have been unwound the same way.
func (w *World) Wait() []error {
	clean := false
	w.procs = 0 // Offload reads GOMAXPROCS once per Wait, if at all
	inWait.Add(1)
	defer func() {
		if !clean { // a rank panicked, or exited its goroutine as t.Fatal does
			w.stopAll(errAborted)
		}
		inWait.Add(-1)
	}()
	for w.nready > 0 {
		rk := &w.ranks[w.ready[w.head]]
		if w.head++; w.head == w.n {
			w.head = 0
		}
		w.nready--
		if rk.job.state.Load() != jobIdle {
			w.finish(&rk.job)
		}
		rk.resume()
	}
	for r := range w.ranks {
		if w.ranks[r].state == rankBlocked {
			w.stopAll(w.deadlockError())
			break
		}
	}
	clean = true
	return w.errs
}

// deadlockError names every rank stuck in a receive or collective.
func (w *World) deadlockError() error {
	const maxNamed = 8 // a 1024-rank world need not name them all
	var b strings.Builder
	blocked := 0
	for r := range w.ranks {
		rk := &w.ranks[r]
		if rk.state != rankBlocked {
			continue
		}
		if blocked++; blocked > maxNamed {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		if s := rk.on.slot; s != nil {
			fmt.Fprintf(&b, "rank %d in %s (epoch %d, seq %d, %d of %d arrived)", r, s.kind, s.epoch, s.seq, s.arrived, w.n)
		} else {
			fmt.Fprintf(&b, "rank %d in recv (src %d, tag %d)", r, rk.on.src, rk.on.tag)
		}
	}
	if blocked > maxNamed {
		fmt.Fprintf(&b, "; and %d more", blocked-maxNamed)
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, b.String())
}

// stopAll unwinds every rank whose function has not returned, once
// every offloaded job has run: its pending block, and every later
// operation, returns why — also as the
// exit error of a rank that was blocked (not parked) and reported no
// other. The world is not usable afterwards.
func (w *World) stopAll(why error) {
	w.finishAll()
	w.halt = why
	for r := range w.ranks {
		rk := &w.ranks[r]
		if rk.state == rankDone {
			continue
		}
		wasBlocked := rk.state == rankBlocked
		rk.stop()
		rk.state = rankDone
		if wasBlocked && w.errs[r] == nil {
			w.errs[r] = why
		}
	}
	w.nready = 0
}

// Run spawns fn on every rank, waits for all to finish, and returns the
// first non-nil error by rank order (nil if all ranks exited cleanly).
// It is the common entry point for single-epoch programs with no process
// failures; failure-handling programs use Spawn/Wait with a supervisor.
func Run(cfg Config, fn func(c *Comm) error) error {
	w := NewWorld(cfg)
	for r := 0; r < cfg.Ranks; r++ {
		w.Spawn(r, 0, fn)
	}
	for r, err := range w.Wait() {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Kill marks rank r failed from the outside (a fault injector's hammer):
// from the driving goroutine between Waits, or from a running rank. All
// of r's in-progress and future operations return ErrKilled; all other
// ranks' operations return ErrRankFailed until Repair. Killing an
// already-failed rank is a no-op.
func (w *World) Kill(r int) {
	if w.failed[r] {
		return
	}
	w.failed[r] = true
	w.revoked = true
	w.wakeBlocked()
}

// Repair clears the failed/revoked state after the supervisor has
// respawned replacement ranks, opening a new epoch: collective sequence
// numbers restart and stale messages from the previous epoch are purged.
// It returns the new epoch number, which respawned and surviving ranks
// adopt via (*Comm).JoinEpoch.
func (w *World) Repair() int {
	clear(w.failed)
	w.revoked = false
	w.epoch++
	clear(w.queues)
	// Collective slots from the old epoch can never complete; drop them.
	// Sequence numbers restart with the epoch.
	clear(w.colls)
	w.colls, w.collBase = w.colls[:0], 0
	w.wakeBlocked()
	return w.epoch
}
