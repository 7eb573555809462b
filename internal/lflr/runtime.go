package lflr

import (
	"errors"
	"fmt"

	"repro/internal/comm"
)

// Ctx is the per-rank handle an LFLR application runs with: the
// communicator, the persistent store, and the recovery hooks.
type Ctx struct {
	Comm  *comm.Comm
	Store *Store
	// Recovering is true when this rank is a replacement process spawned
	// into a failed rank's slot: the entry function should restore state
	// from the Store instead of initialising fresh. The application MUST
	// clear it once its initial recovery pass completes — on any later
	// failure this rank is an ordinary survivor, and leaving the flag set
	// would make it skip its survivor-side duties in the next recovery.
	Recovering bool

	rt *Runtime
}

// AwaitRepair parks a surviving rank after it observed ErrRankFailed,
// until the supervisor has respawned the failed rank and repaired the
// world. On return the rank has joined the new epoch and may communicate
// again. The application then runs its own recovery protocol (state
// rollback, log replay) before resuming.
func (ctx *Ctx) AwaitRepair() {
	rt := ctx.rt
	rt.parks = append(rt.parks, rankNote{rank: ctx.Comm.Rank(), clock: ctx.Comm.Clock()})
	// A Park that fails means the world is being unwound; the rank's
	// next operation returns the same error, which is where callers look.
	_ = ctx.Comm.Park()
	ctx.Comm.JoinEpoch(rt.epoch)
}

// rankNote is what a rank leaves for the supervisor when it parks or
// exits: who it is and how far its clock got (and, for an exit, why).
type rankNote struct {
	rank  int
	clock float64
	err   error
}

// Runtime is the LFLR supervisor: it launches the world, watches for rank
// deaths, respawns replacements into the failed slots (with Recovering
// set), repairs the communication epoch, and releases parked survivors.
// It implements the system-software side of the §II-C contract.
type Runtime struct {
	world *comm.World
	store *Store
	// RespawnCost is the virtual time to boot a replacement process
	// (default 10 ms — process launch, library init).
	RespawnCost float64

	// The ranks append to these while the world runs and the supervisor
	// reads them between Waits; one rank runs at a time, so plain
	// slices do.
	parks []rankNote // survivors waiting in AwaitRepair
	exits []rankNote // rank functions that have returned
	epoch int        // the epoch released survivors join
}

// NewRuntime wraps a world with LFLR supervision.
func NewRuntime(world *comm.World, store *Store) *Runtime {
	return &Runtime{world: world, store: store, RespawnCost: 10e-3}
}

// Execute runs entry on every rank and supervises until all ranks have
// completed. Ranks that die (comm.ErrKilled) are respawned with
// Ctx.Recovering=true; survivors park in AwaitRepair and are released
// once the world is repaired. Any other rank error aborts the run.
// It returns the number of recoveries performed.
func (rt *Runtime) Execute(entry func(*Ctx) error) (recoveries int, err error) {
	n := rt.world.Size()
	wrap := func(recovering bool) func(c *comm.Comm) error {
		return func(c *comm.Comm) error {
			e := entry(&Ctx{Comm: c, Store: rt.store, Recovering: recovering, rt: rt})
			rt.exits = append(rt.exits, rankNote{rank: c.Rank(), clock: c.Clock(), err: e})
			return e
		}
	}
	for r := 0; r < n; r++ {
		rt.world.Spawn(r, 0, wrap(false))
	}

	for finished := 0; ; {
		// Wait returns once every rank has finished, died or parked —
		// the point at which the world can be repaired.
		rt.world.Wait()
		var dead []int
		maxClock := 0.0
		for _, e := range rt.exits {
			switch {
			case e.err == nil:
				finished++
			case errors.Is(e.err, comm.ErrKilled):
				dead = append(dead, e.rank)
				maxClock = max(maxClock, e.clock)
			default:
				return recoveries, fmt.Errorf("lflr: rank %d failed unrecoverably: %w", e.rank, e.err)
			}
		}
		if finished == n {
			return recoveries, nil
		}
		if len(dead) == 0 {
			return recoveries, fmt.Errorf("lflr: %d of %d ranks finished and the rest await a repair, but no rank died", finished, n)
		}
		for _, p := range rt.parks {
			maxClock = max(maxClock, p.clock)
		}
		rt.epoch = rt.world.Repair()
		for _, r := range dead {
			rt.world.Spawn(r, maxClock+rt.RespawnCost, wrap(true))
			recoveries++
		}
		for _, p := range rt.parks {
			rt.world.Release(p.rank)
		}
		rt.parks, rt.exits = rt.parks[:0], rt.exits[:0]
	}
}
