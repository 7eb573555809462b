package lflr

import (
	"errors"
	"fmt"

	"repro/internal/comm"
)

// rankCtx is the per-rank handle an LFLR application runs with: the
// communicator, the persistent store, and the recovery hooks.
type rankCtx struct {
	comm  *comm.Comm
	store *store
	// recovering is true when this rank is a replacement process spawned
	// into a failed rank's slot: the entry function should restore state
	// from the store instead of initialising fresh. The application MUST
	// clear it once its initial recovery pass completes — on any later
	// failure this rank is an ordinary survivor, and leaving the flag set
	// would make it skip its survivor-side duties in the next recovery.
	recovering bool

	rt *supervisor
}

// awaitRepair parks a surviving rank after it observed ErrRankFailed,
// until the supervisor has respawned the failed rank and repaired the
// world. On return the rank has joined the new epoch and may communicate
// again. The application then runs its own recovery protocol (state
// rollback, log replay) before resuming.
func (ctx *rankCtx) awaitRepair() {
	rt := ctx.rt
	rt.parks = append(rt.parks, rankNote{rank: ctx.comm.Rank(), clock: ctx.comm.Clock()})
	// A Park that fails means the world is being unwound; the rank's
	// next operation returns the same error, which is where callers look.
	_ = ctx.comm.Park()
	ctx.comm.JoinEpoch(rt.epoch)
}

// rankNote is what a rank leaves for the supervisor when it parks or
// exits: who it is and how far its clock got (and, for an exit, why).
type rankNote struct {
	rank  int
	clock float64
	err   error
}

// respawnCost is the virtual time to boot a replacement process: 10 ms
// of process launch and library init.
const respawnCost = 10e-3

// supervisor is the LFLR runtime: it launches the world, watches for
// rank deaths, respawns replacements into the failed slots (with
// recovering set), repairs the communication epoch, and releases parked
// survivors. It implements the system-software side of the §II-C
// contract.
type supervisor struct {
	world *comm.World
	store *store

	// The ranks append to these while the world runs and the supervisor
	// reads them between Waits; one rank runs at a time, so plain
	// slices do.
	parks []rankNote // survivors waiting in awaitRepair
	exits []rankNote // rank functions that have returned
	epoch int        // the epoch released survivors join
}

// execute runs entry on every rank and supervises until all ranks have
// completed. Ranks that die (comm.ErrKilled) are respawned with
// recovering set; survivors park in awaitRepair and are released once
// the world is repaired. Any other rank error aborts the run. It
// returns the number of recoveries performed.
func (rt *supervisor) execute(entry func(*rankCtx) error) (recoveries int, err error) {
	n := rt.world.Size()
	wrap := func(recovering bool) func(c *comm.Comm) error {
		return func(c *comm.Comm) error {
			e := entry(&rankCtx{comm: c, store: rt.store, recovering: recovering, rt: rt})
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
			rt.world.Spawn(r, maxClock+respawnCost, wrap(true))
			recoveries++
		}
		for _, p := range rt.parks {
			rt.world.Release(p.rank)
		}
		rt.parks, rt.exits = rt.parks[:0], rt.exits[:0]
	}
}
