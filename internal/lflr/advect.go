package lflr

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/la"
	"repro/internal/problems"
)

// AdvectConfig describes the LFLR advection run (experiment F10): a 1D
// periodic upwind advection over ring-partitioned cells, with the same
// LFLR machinery as the heat app (uncoordinated persistence, sender-side
// halo logging, respawn + replay) plus the *two-sided* skeptical mass
// guard: total mass is conserved exactly by the scheme, so corruption in
// either direction shows as a mass jump.
type AdvectConfig struct {
	N            int     // global cells
	C            float64 // CFL number, 0 < C ≤ 1
	Steps        int
	PersistEvery int
	Faults       fault.Plan // as in HeatConfig; indices within a rank's cells
	MassGuard    bool
}

const tagAdvect = 5000

// RunAdvection executes the configured scenario on a world opened from
// world, returning rank 0's view (Summary is the final mass Σu).
func RunAdvection(world comm.Config, cfg AdvectConfig) (Result, error) {
	sp := spec{
		steps: cfg.Steps, persistEvery: cfg.PersistEvery, faults: cfg.Faults,
		cells: cfg.N, unit: "cells", nx: 1,
	}
	return run(world, sp, func(c *comm.Comm) app {
		a := &advectApp{n: cfg.N, cfl: cfg.C}
		a.lo, a.hi = dist.Partition{N: cfg.N, P: c.Size()}.Range(c.Rank())
		// Ring halo: the last cell goes right, the ghost comes from the
		// left (periodic, so every rank has both neighbours). The upwind
		// stencil needs the LEFT neighbour's boundary value only, so the
		// rank to a replacement's left ships its log.
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() + c.Size() - 1) % c.Size()
		n := a.hi - a.lo
		ap := app{
			key: "u", lost: "persisted advection state", logged: "advection log", summary: la.Sum,
			initial: a.initial, step: a.step, update: a.update,
			out: []outHalo{{to: right, tag: tagAdvect, lo: n - 1, hi: n, log: haloLog{}}},
			in:  []inHalo{{from: left, tag: tagAdvect, slot: 0}},
		}
		if cfg.MassGuard {
			// The reference is the starting mass, a baseline a replacement
			// never saw: every rank re-takes it after a recovery.
			ap.violated = massViolated
		}
		return ap
	})
}

// advectApp is the upwind stencil on one rank's cells [lo, hi) of the ring.
type advectApp struct {
	n      int
	cfl    float64
	lo, hi int
}

func (a *advectApp) initial() []float64 { return problems.AdvectionInitial(a.n, a.lo, a.hi) }

func (a *advectApp) step(r *rank) (float64, error) {
	if err := r.haloStep(); err != nil {
		return 0, err
	}
	// Step-boundary mass reduction: failure detector + two-sided
	// conservation check.
	c := r.ctx.comm
	mass, err := c.AllreduceScalar(la.Sum(r.u), comm.OpSum)
	if err != nil {
		return 0, err
	}
	c.Compute(float64(len(r.u)))
	return mass, nil
}

// update is the upwind update, same arithmetic as the serial reference
// (advection1D.run in reference_test.go);
// halos[0] is the ghost cell from the left.
func (a *advectApp) update(c *comm.Comm, u, v []float64, halos [2][]float64) {
	for i := range u {
		lv := halos[0][0]
		if i > 0 {
			lv = u[i-1]
		}
		v[i] = u[i] - a.cfl*(u[i]-lv)
	}
	c.Compute(3 * float64(len(u)))
}

// massViolated is the two-sided conservation detector: upwind advection
// preserves Σu to rounding, so any visible drift proves corruption —
// in either direction.
func massViolated(mass0, mass float64) bool {
	if math.IsNaN(mass) || math.IsInf(mass, 0) {
		return true
	}
	return math.Abs(mass-mass0) > 1e-9*(1+math.Abs(mass0))
}
