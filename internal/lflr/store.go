// Package lflr implements the Local-Failure-Local-Recovery programming
// model of paper §II-C, verbatim from its definition: the user "store[s]
// specific data persistently for each MPI process", registers recovery
// behaviour, and on failure "a new process is started and assigned to the
// rank of the failed process", with access to "the persistent data of the
// old process, as well as the neighbors' persistent data". Processes that
// hold valid state are not restarted — only the failed rank recovers,
// with neighbours assisting (here: by replaying logged halo messages).
//
// Three layers. The model is the store and the supervisor: the
// persistent data, and the runtime that respawns a failed rank and
// releases the parked survivors. Both belong to the runtime, not to the
// application, so neither is exported: each run opens its own world
// from a comm.Config and its own fresh store. The skeleton
// (skeleton.go) is the one time-stepping loop around them: step, agree
// on a rollback target after a repair, persist and restore, ship and
// replay sender-side halo logs, roll back when a skeptical invariant
// fires, gather the one Result. The applications are three values of
// its app type, holding only a stencil, a halo topology, a replica
// transform and an invariant (docs/ARCHITECTURE.md tabulates them):
// explicit heat (the "easy" case of §III-C, recovering bitwise),
// upwind advection (the same, under a two-sided mass invariant), and
// implicit backward-Euler heat bootstrapped from a coarsened redundant
// replica (§III-C's "redundant storage of coarse model" bullet).
package lflr

import (
	"sync"

	"repro/internal/comm"
	"repro/internal/la"
)

// store is the per-rank persistent key-value store of the LFLR model.
// Data written here survives the owner's process failure — physically it
// would live in NVM or a neighbour's memory; the simulation keeps it in
// the supervisor's address space and charges the owning rank the
// replication cost of shipping each save to a partner rank, so virtual
// time reflects the real protocol while the payload takes the reliable
// path.
type store struct {
	mu   sync.Mutex
	vals map[int]map[string][]float64
}

// newStore returns an empty store.
func newStore() *store {
	return &store{vals: make(map[int]map[string][]float64)}
}

// save persists data under key for the calling rank, charging the rank
// one neighbour-replication transfer (latency + bandwidth + both
// overheads) of virtual time.
func (s *store) save(c *comm.Comm, key string, data []float64) {
	c.AdvanceClock(chargeModel(c, len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.vals[c.Rank()]
	if m == nil {
		m = make(map[string][]float64)
		s.vals[c.Rank()] = m
	}
	m[key] = la.Copy(data)
}

// saveScalar persists a single value.
func (s *store) saveScalar(c *comm.Comm, key string, v float64) {
	s.save(c, key, []float64{v})
}

// restore fetches the calling rank's persisted data for key, charging
// one replica-fetch transfer. ok is false if nothing was saved.
func (s *store) restore(c *comm.Comm, key string) (data []float64, ok bool) {
	s.mu.Lock()
	m := s.vals[c.Rank()]
	var v []float64
	if m != nil {
		v, ok = m[key]
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.AdvanceClock(chargeModel(c, len(v)))
	return la.Copy(v), true
}

// restoreScalar fetches a single persisted value.
func (s *store) restoreScalar(c *comm.Comm, key string) (float64, bool) {
	v, ok := s.restore(c, key)
	if !ok || len(v) == 0 {
		return 0, false
	}
	return v[0], true
}

// chargeModel prices one store transfer of n float64s: a point-to-point
// message to the replica partner plus CPU overhead on both ends.
func chargeModel(c *comm.Comm, n int) float64 {
	cost := c.World().Cost()
	return cost.PointToPoint(8*n) + 2*cost.Overhead
}
