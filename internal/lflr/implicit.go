package lflr

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
)

// ImplicitConfig describes the backward-Euler LFLR heat run of experiment
// T3: each time step solves (I + ν·L)·u' = u with distributed CG, and
// each rank persists a *coarsened* replica of its strip (coarsening
// factor Coarsen per dimension, so the replica costs ~1/Coarsen² of the
// state). On failure the replacement bootstraps from the interpolated
// coarse model — §III-C's "redundant storage of coarse model" recovery —
// which is approximate: the experiment measures how the approximation
// error and the post-recovery solver effort scale with Coarsen.
type ImplicitConfig struct {
	Nx, Ny  int
	Nu      float64 // implicit diffusion number (any positive value is stable)
	Steps   int
	Coarsen int        // replica coarsening factor (1 = exact replica)
	Faults  fault.Plan // as in HeatConfig
}

// Each implicit step's CG solve stops at this relative residual or
// iteration cap.
const (
	implicitCGTol     = 1e-10
	implicitCGMaxIter = 500
)

// RunImplicitHeat executes the scenario on a world opened from world and
// returns rank 0's view, CGIters and ReplicaFloats included.
func RunImplicitHeat(world comm.Config, cfg ImplicitConfig) (Result, error) {
	if cfg.Coarsen <= 0 {
		cfg.Coarsen = 1
	}
	// No halo is declared: nobody can assist a CG solve's replacement, so
	// it persists every step and must restore to the agreed step itself.
	sp := spec{steps: cfg.Steps, persistEvery: 1, faults: cfg.Faults, cells: cfg.Ny, unit: "grid rows", nx: cfg.Nx}
	var root *implicitApp // rank 0's current incarnation
	res, err := run(world, sp, func(c *comm.Comm) app {
		a := &implicitApp{strip: newStrip(c, cfg.Nx, cfg.Ny), cfg: cfg}
		a.op = dist.NewStencil5(c, cfg.Nx, cfg.Ny, 1+4*cfg.Nu, -cfg.Nu)
		a.si, a.sj = sampleIdx(a.nx, cfg.Coarsen), sampleIdx(a.rows(), cfg.Coarsen)
		if c.Rank() == 0 {
			root = a
		}
		return app{
			key: "coarse", lost: "coarse replica",
			initial: a.initial, step: a.step, replica: a.replica, rebuild: a.rebuild,
		}
	})
	if err != nil {
		return Result{}, err
	}
	res.CGIters, res.ReplicaFloats = root.cgIters, root.replicaN
	return res, nil
}

// implicitApp is the backward-Euler step on a strip, persisted as a
// coarsened replica.
type implicitApp struct {
	strip
	cfg      ImplicitConfig
	op       *dist.Stencil5
	si, sj   []int // the coarse grid's columns and rows within the strip
	cgIters  []int
	replicaN int
}

func (a *implicitApp) step(r *rank) (float64, error) {
	c := r.ctx.comm
	copy(r.uPrev, r.u)
	x, st, err := krylov.DistCG(c, a.op, r.u, r.u, krylov.DistOptions{Tol: implicitCGTol, MaxIter: implicitCGMaxIter})
	if err != nil {
		return 0, err
	}
	r.u = x
	r.updates++
	a.cgIters = append(a.cgIters, st.Iterations)
	return reduceEnergy(c, r.u)
}

// replica samples the strip on the coarse grid.
func (a *implicitApp) replica(u []float64) []float64 {
	coarse := make([]float64, 0, len(a.si)*len(a.sj))
	for _, j := range a.sj {
		for _, i := range a.si {
			coarse = append(coarse, u[j*a.nx+i])
		}
	}
	a.replicaN = len(coarse)
	return coarse
}

// rebuild recreates the fine strip by bilinear interpolation of the
// persisted coarse replica — the bootstrap state of §III-C.
func (a *implicitApp) rebuild(coarse []float64) ([]float64, error) {
	if len(coarse) != len(a.si)*len(a.sj) {
		return nil, fmt.Errorf("lflr: coarse replica has %d values, want %d", len(coarse), len(a.si)*len(a.sj))
	}
	u := make([]float64, a.rows()*a.nx)
	for j := 0; j < a.rows(); j++ {
		for i := 0; i < a.nx; i++ {
			u[j*a.nx+i] = bilinear(coarse, a.si, a.sj, i, j)
		}
	}
	return u, nil
}

// sampleIdx returns 0, c, 2c, … plus the last index (so interpolation has
// support up to the strip edge).
func sampleIdx(n, c int) []int {
	if n <= 0 {
		return nil
	}
	var idx []int
	for i := 0; i < n; i += c {
		idx = append(idx, i)
	}
	if idx[len(idx)-1] != n-1 {
		idx = append(idx, n-1)
	}
	return idx
}

// bilinear interpolates the coarse grid (values at rows sj × cols si) at
// fine point (i, j).
func bilinear(coarse []float64, si, sj []int, i, j int) float64 {
	ci := bracket(si, i)
	cj := bracket(sj, j)
	i0, i1 := si[ci], si[min(ci+1, len(si)-1)]
	j0, j1 := sj[cj], sj[min(cj+1, len(sj)-1)]
	at := func(cjj, cii int) float64 { return coarse[cjj*len(si)+cii] }
	tx := 0.0
	if i1 > i0 {
		tx = float64(i-i0) / float64(i1-i0)
	}
	ty := 0.0
	if j1 > j0 {
		ty = float64(j-j0) / float64(j1-j0)
	}
	v00 := at(cj, ci)
	v01 := at(cj, min(ci+1, len(si)-1))
	v10 := at(min(cj+1, len(sj)-1), ci)
	v11 := at(min(cj+1, len(sj)-1), min(ci+1, len(si)-1))
	return (1-ty)*((1-tx)*v00+tx*v01) + ty*((1-tx)*v10+tx*v11)
}

// bracket returns the largest k with s[k] <= v.
func bracket(s []int, v int) int {
	k := 0
	for k+1 < len(s) && s[k+1] <= v {
		k++
	}
	return k
}
