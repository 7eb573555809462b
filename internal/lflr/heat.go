package lflr

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/la"
)

// HeatConfig describes the explicit LFLR heat-equation run of experiment
// F4: a 2D FTCS heat equation on an Nx×Ny interior grid, row-strip
// partitioned, with uncoordinated per-rank persistence every PersistEvery
// steps, sender-side halo logging in between, and the faults of a plan.
type HeatConfig struct {
	Nx, Ny       int     // global interior grid
	Nu           float64 // dt/h², ≤ 0.25 for stability
	Steps        int
	PersistEvery int
	// Faults strikes at time steps (fault.SiteStep): a Kill is a process
	// failure, a Flip silently corrupts a value of a rank's strip.
	Faults fault.Plan
	// EnergyGuard arms the skeptical conservation detector: the global
	// energy Σu² of the explicit scheme is non-increasing for ν ≤ 1/4,
	// so an energy increase (or a non-finite energy) proves corruption.
	// Detection triggers a *local rollback*: every rank restores its own
	// persisted state — SkP detection recovered through the LFLR store,
	// the §II-A "rolling back to a previous valid state" option, with no
	// process loss involved. Downward corruption evades this detector
	// (documented in T1); upward corruption — the catastrophic kind — is
	// always caught.
	EnergyGuard bool
}

// HeatResult is what one run reports.
type HeatResult struct {
	U           []float64 // final global field (rank-order concatenation)
	Energy      float64   // final Σu²
	FinalClock  float64   // max virtual time over ranks
	Recoveries  int
	ReplaySteps int // recomputed steps during recoveries (failed rank only)

	SDCDetections int // energy-guard firings
	RollbackSteps int // steps re-executed after SDC rollbacks
}

const (
	tagHeatDown = 3000 // a strip's last row, to rank+1
	tagHeatUp   = 3001 // a strip's first row, to rank-1
)

// RunHeat executes the configured scenario over an existing world and
// returns the result observed by rank 0 (global field gathered at the
// end). The store must be fresh per run.
func RunHeat(world *comm.World, store *Store, cfg HeatConfig) (HeatResult, error) {
	sp := spec{
		steps: cfg.Steps, persistEvery: cfg.PersistEvery, faults: cfg.Faults,
		cells: cfg.Ny, unit: "grid rows", nx: cfg.Nx,
	}
	res, err := run(world, store, sp, func(c *comm.Comm) app {
		h := &heatApp{strip: newStrip(c, cfg.Nx, cfg.Ny), nu: cfg.Nu}
		n := h.rows() * h.nx
		ap := app{
			key: "u", lost: "persisted state", logged: "logged halo", summary: func(u []float64) float64 { return la.Dot(u, u) },
			initial: h.initial, step: h.step, update: h.update,
		}
		// Both strip neighbours read a row of this rank and assist its
		// replacement: the lower one first, as the exchange orders them.
		if down := c.Rank() - 1; down >= 0 {
			ap.out = append(ap.out, outHalo{to: down, tag: tagHeatUp, lo: 0, hi: h.nx, log: haloLog{}})
			ap.in = append(ap.in, inHalo{from: down, tag: tagHeatDown, slot: 0})
		}
		if up := c.Rank() + 1; up < c.Size() {
			ap.out = append(ap.out, outHalo{to: up, tag: tagHeatDown, lo: n - h.nx, hi: n, log: haloLog{}})
			ap.in = append(ap.in, inHalo{from: up, tag: tagHeatUp, slot: 1})
		}
		if cfg.EnergyGuard {
			// The reference is the previous step's energy, which a replacement
			// re-acquires in one accepted step: a recovery leaves it alone.
			ap.violated, ap.perStep = violatesDecay, true
		}
		return ap
	})
	return HeatResult{
		U: res.u, Energy: res.summary, FinalClock: res.clock, Recoveries: res.recoveries, ReplaySteps: res.replaySteps,
		SDCDetections: res.sdcDetections, RollbackSteps: res.rollbackSteps,
	}, err
}

// strip is one rank's row slab [jlo, jhi) of the Nx×Ny heat grid, shared
// by the explicit and the implicit app.
type strip struct {
	nx, ny   int
	jlo, jhi int
}

func newStrip(c *comm.Comm, nx, ny int) strip {
	jlo, jhi := dist.Partition{N: ny, P: c.Size()}.Range(c.Rank())
	return strip{nx: nx, ny: ny, jlo: jlo, jhi: jhi}
}

func (g strip) rows() int { return g.jhi - g.jlo }

// initial samples the same initial condition as problems.NewHeatGrid on
// this rank's strip.
func (g strip) initial() []float64 {
	u := make([]float64, g.rows()*g.nx)
	for j := 0; j < g.rows(); j++ {
		gj := g.jlo + j
		for i := 0; i < g.nx; i++ {
			x := float64(i+1) / float64(g.nx+1)
			y := float64(gj+1) / float64(g.ny+1)
			u[j*g.nx+i] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	return u
}

// reduceEnergy is the heat apps' step-boundary reduction: the global
// energy is non-increasing for ν ≤ 1/4 (the skeptical conservation
// check), and the collective guarantees every rank observes a failure
// within one step.
func reduceEnergy(c *comm.Comm, u []float64) (float64, error) {
	localE := la.Dot(u, u)
	c.Compute(la.FlopsDot(len(u)))
	return c.AllreduceScalar(localE, comm.OpSum)
}

// heatApp is the explicit FTCS stencil on a strip.
type heatApp struct {
	strip
	nu float64
}

func (h *heatApp) step(r *rank) (float64, error) {
	if err := r.haloStep(); err != nil {
		return 0, err
	}
	return reduceEnergy(r.ctx.Comm, r.u)
}

// update performs the FTCS update with the exact arithmetic of the
// serial reference (problems.HeatGrid.Step), so recovered runs match the
// fault-free trajectory bitwise. halos are the rows below and above the
// strip, nil beyond the grid.
func (h *heatApp) update(c *comm.Comm, u, v []float64, halos [2][]float64) {
	nx, nRows, nu := h.nx, h.rows(), h.nu
	below, above := halos[0], halos[1]
	at := func(i, j int) float64 {
		if i < 0 || i >= nx {
			return 0
		}
		switch {
		case j < 0:
			if below == nil {
				return 0
			}
			return below[i]
		case j >= nRows:
			if above == nil {
				return 0
			}
			return above[i]
		default:
			return u[j*nx+i]
		}
	}
	for j := 0; j < nRows; j++ {
		for i := 0; i < nx; i++ {
			cv := u[j*nx+i]
			v[j*nx+i] = cv + nu*(at(i-1, j)+at(i+1, j)+at(i, j-1)+at(i, j+1)-4*cv)
		}
	}
	c.Compute(6 * float64(nRows*nx))
}

// violatesDecay is the conservation detector: for the explicit scheme the
// energy must not increase (a hair of slack absorbs rounding), and must
// stay finite.
func violatesDecay(prev, cur float64) bool {
	if math.IsNaN(cur) || math.IsInf(cur, 0) {
		return true
	}
	return cur > prev*(1+1e-12)
}
