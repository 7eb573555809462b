package lflr

import (
	"testing"

	"repro/internal/problems"
)

// heatGrid is a serial 2D heat-equation stepper on an nx×ny interior grid
// with homogeneous Dirichlet boundaries, explicit FTCS discretisation:
//
//	u' = u + ν·(uN + uS + uE + uW − 4u),   ν = dt/h² ≤ 1/4 for stability.
//
// It is the reference the distributed heat app is verified against —
// bitwise, because both apply the identical update in the identical
// order.
type heatGrid struct {
	nx, ny  int
	nu      float64
	u       []float64 // row-major interior, len nx*ny
	scratch []float64
}

// newHeatGrid allocates a grid holding problems.HeatInitial on every row.
func newHeatGrid(nx, ny int, nu float64) *heatGrid {
	return &heatGrid{nx: nx, ny: ny, nu: nu, u: problems.HeatInitial(nx, ny, 0, ny), scratch: make([]float64, nx*ny)}
}

// step advances one explicit time step.
func (g *heatGrid) step() {
	nx, ny, nu := g.nx, g.ny, g.nu
	u, v := g.u, g.scratch
	at := func(i, j int) float64 {
		if i < 0 || i >= nx || j < 0 || j >= ny {
			return 0 // Dirichlet boundary
		}
		return u[j*nx+i]
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := u[j*nx+i]
			v[j*nx+i] = c + nu*(at(i-1, j)+at(i+1, j)+at(i, j-1)+at(i, j+1)-4*c)
		}
	}
	g.u, g.scratch = v, u
}

// run advances steps time steps.
func (g *heatGrid) run(steps int) {
	for s := 0; s < steps; s++ {
		g.step()
	}
}

// energy returns the discrete L2 energy Σu², the conserved-up-to-decay
// quantity the energy guard monitors (it must never increase for
// ν ≤ 1/4).
func (g *heatGrid) energy() float64 {
	s := 0.0
	for _, v := range g.u {
		s += v * v
	}
	return s
}

// advection1D is a serial first-order upwind advection stepper on a
// periodic ring of n cells:
//
//	u'_i = u_i − c·(u_i − u_{i−1 mod n}),   0 < c ≤ 1 (CFL number).
//
// The scheme conserves total mass Σu exactly in exact arithmetic — an
// *equality* invariant, unlike the heat equation's one-sided energy
// decay, which makes its skeptical conservation check two-sided: silent
// corruption is detectable whichever direction the flip moved the value.
type advection1D struct {
	n       int
	c       float64
	u       []float64
	scratch []float64
}

// newAdvection1D allocates a ring holding problems.AdvectionInitial on
// every cell.
func newAdvection1D(n int, c float64) *advection1D {
	return &advection1D{n: n, c: c, u: problems.AdvectionInitial(n, 0, n), scratch: make([]float64, n)}
}

// run advances steps upwind steps.
func (a *advection1D) run(steps int) {
	for s := 0; s < steps; s++ {
		u, v, n := a.u, a.scratch, a.n
		for i := 0; i < n; i++ {
			left := u[(i-1+n)%n]
			v[i] = u[i] - a.c*(u[i]-left)
		}
		a.u, a.scratch = v, u
	}
}

// mass returns the conserved total Σu.
func (a *advection1D) mass() float64 {
	s := 0.0
	for _, v := range a.u {
		s += v
	}
	return s
}

func TestHeatGridEnergyDecays(t *testing.T) {
	g := newHeatGrid(20, 20, 0.25)
	prev := g.energy()
	if prev <= 0 {
		t.Fatal("initial energy must be positive")
	}
	for s := 0; s < 50; s++ {
		g.step()
		e := g.energy()
		if e > prev+1e-15 {
			t.Fatalf("energy grew at step %d: %g -> %g", s, prev, e)
		}
		prev = e
	}
}

func TestHeatGridStableRange(t *testing.T) {
	g := newHeatGrid(15, 15, 0.25)
	g.run(200)
	for _, v := range g.u {
		if v < -1e-12 || v > 1 {
			t.Fatalf("value %g outside [0,1]", v)
		}
	}
}

func TestHeatGridUnstableNuGrows(t *testing.T) {
	// Above the CFL limit the scheme must blow up — a sanity check that
	// nu really is the stability knob (and a negative control for the
	// conservation skeptical check).
	g := newHeatGrid(15, 15, 0.6)
	e0 := g.energy()
	g.run(200)
	if g.energy() <= e0 {
		t.Error("expected instability at nu=0.6")
	}
}
