// Package comm is a simulated MPI: a fixed set of ranks, each executing on
// its own goroutine, exchanging messages and running collectives over a
// deterministic virtual-time cost model (see internal/machine).
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
package comm

import (
	"errors"
	"fmt"
	"sync"

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
	// discards, rank kills). It is called on the emitting rank's
	// goroutine, outside all world locks — with more than one rank,
	// concurrently — so it must be safe for concurrent use and may not
	// call back into the world. Observation is read-only — it never
	// advances a clock or touches an RNG — so a world with an observer
	// computes bit-identical results to one without.
	Observer func(obs.Event)
}

// World is a set of simulated ranks plus the shared machinery they
// communicate through. Create one with NewWorld, then either call Spawn
// for each rank function and Wait, or use the Run convenience wrapper.
type World struct {
	n     int
	cost  machine.CostModel
	noise machine.Noise

	mu      sync.Mutex
	cond    *sync.Cond
	failed  []bool // failed[r]: rank r is dead
	revoked bool   // a failure has been noticed and not yet repaired
	epoch   int    // incremented by Repair; isolates collective matching
	nFailed int

	queues   []msgQueue // per-destination-rank mailboxes
	colls    map[collKey]*collSlot
	maxClock float64 // latest virtual time observed by any operation
	pool     bufPool // recycled payload buffers (guarded by mu)
	slotPool []*collSlot

	ledger   *Ledger
	observer func(obs.Event)
	seedRNG  *machine.RNG
	wg       sync.WaitGroup
	errsMu   sync.Mutex
	errs     map[int]error // exit error per rank (most recent run)
}

type collKey struct {
	epoch int
	seq   int
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
		queues:   make([]msgQueue, cfg.Ranks),
		colls:    make(map[collKey]*collSlot),
		ledger:   cfg.Ledger,
		observer: cfg.Observer,
		seedRNG:  machine.NewRNG(cfg.Seed ^ 0xda3e39cb94b95bdb),
		errs:     make(map[int]error),
	}
	w.cond = sync.NewCond(&w.mu)
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

// Spawn starts rank r running fn on a new goroutine. The rank's virtual
// clock starts at startTime (0 for an initial launch; a respawn passes the
// failure-repair time). Spawn panics if r is out of range.
func (w *World) Spawn(r int, startTime float64, fn func(c *Comm) error) {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("comm: spawn of rank %d in world of size %d", r, w.n))
	}
	w.mu.Lock()
	epoch := w.epoch
	rng := w.seedRNG.Split()
	w.mu.Unlock()

	c := &Comm{
		world: w,
		rank:  r,
		rng:   rng,
		epoch: epoch,
	}
	c.clock.SyncTo(startTime)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		err := fn(c)
		if w.ledger != nil {
			w.ledger.noteRankExit(c.stats, c.clock.Now())
		}
		w.errsMu.Lock()
		w.errs[r] = err
		w.errsMu.Unlock()
	}()
}

// Wait blocks until every spawned rank function has returned, then
// returns the per-rank exit errors (nil entries for clean exits).
func (w *World) Wait() map[int]error {
	w.wg.Wait()
	w.errsMu.Lock()
	defer w.errsMu.Unlock()
	out := make(map[int]error, len(w.errs))
	for r, e := range w.errs {
		out[r] = e
	}
	return out
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
	errs := w.Wait()
	for r := 0; r < cfg.Ranks; r++ {
		if errs[r] != nil {
			return fmt.Errorf("rank %d: %w", r, errs[r])
		}
	}
	return nil
}

// Kill marks rank r failed from the outside (a fault injector's hammer).
// All of r's in-progress and future operations return ErrKilled; all other
// ranks' operations return ErrRankFailed until Repair. Killing an
// already-failed rank is a no-op.
func (w *World) Kill(r int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.killLocked(r)
}

func (w *World) killLocked(r int) {
	if w.failed[r] {
		return
	}
	w.failed[r] = true
	w.nFailed++
	w.revoked = true
	// Wake every blocked operation so it can observe the failure:
	// receivers parked on mailboxes and ranks parked inside collectives.
	w.cond.Broadcast()
	for i := range w.queues {
		w.queues[i].wake()
	}
	for _, s := range w.colls {
		s.cond.Broadcast()
	}
}

// Failed returns the sorted list of currently-failed ranks.
func (w *World) Failed() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []int
	for r, f := range w.failed {
		if f {
			out = append(out, r)
		}
	}
	return out
}

// Repair clears the failed/revoked state after the supervisor has
// respawned replacement ranks, opening a new epoch: collective sequence
// numbers restart and stale messages from the previous epoch are purged.
// It returns the new epoch number, which respawned and surviving ranks
// adopt via (*Comm).JoinEpoch.
func (w *World) Repair() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for r := range w.failed {
		w.failed[r] = false
	}
	w.nFailed = 0
	w.revoked = false
	w.epoch++
	for i := range w.queues {
		w.queues[i].purge()
	}
	// Collective slots from the old epoch can never complete; drop them.
	for k := range w.colls {
		if k.epoch < w.epoch {
			delete(w.colls, k)
		}
	}
	w.cond.Broadcast()
	return w.epoch
}

// MaxClock returns the largest virtual time reported by any completed
// operation bookkeeping. It is refreshed by collectives; for precise
// end-of-run timing prefer reducing clocks inside the rank function.
func (w *World) MaxClock() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxClock
}

func (w *World) observeClock(t float64) {
	if t > w.maxClock {
		w.maxClock = t
	}
}
