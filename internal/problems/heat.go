package problems

import "math"

// HeatGrid is a serial 2D heat-equation stepper on an nx×ny interior grid
// with homogeneous Dirichlet boundaries, explicit FTCS discretisation:
//
//	u' = u + ν·(uN + uS + uE + uW − 4u),   ν = dt/h² ≤ 1/4 for stability.
//
// It is the reference implementation the distributed LFLR heat solver is
// verified against — bitwise, because both apply the identical update in
// the identical order.
type HeatGrid struct {
	Nx, Ny  int
	Nu      float64
	U       []float64 // row-major interior, len Nx*Ny
	scratch []float64
}

// NewHeatGrid allocates a grid holding HeatInitial on every row.
func NewHeatGrid(nx, ny int, nu float64) *HeatGrid {
	return &HeatGrid{Nx: nx, Ny: ny, Nu: nu, U: HeatInitial(nx, ny, 0, ny), scratch: make([]float64, nx*ny)}
}

// HeatInitial samples the standard smooth initial condition
// u(x, y) = sin(πx)·sin(πy) at the interior points of rows [jlo, jhi) of
// an nx×ny grid, row-major. The LFLR heat apps start each rank's strip
// from it, so they and NewHeatGrid start from the same bits.
func HeatInitial(nx, ny, jlo, jhi int) []float64 {
	u := make([]float64, (jhi-jlo)*nx)
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			x := float64(i+1) / float64(nx+1)
			y := float64(j+1) / float64(ny+1)
			u[(j-jlo)*nx+i] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	return u
}

// Step advances one explicit time step.
func (g *HeatGrid) Step() {
	nx, ny, nu := g.Nx, g.Ny, g.Nu
	u, v := g.U, g.scratch
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
	g.U, g.scratch = v, u
}

// Run advances steps time steps.
func (g *HeatGrid) Run(steps int) {
	for s := 0; s < steps; s++ {
		g.Step()
	}
}

// Energy returns the discrete L2 energy Σu², the conserved-up-to-decay
// quantity the LFLR energy guard monitors (it must never increase for
// ν ≤ 1/4).
func (g *HeatGrid) Energy() float64 {
	s := 0.0
	for _, v := range g.U {
		s += v * v
	}
	return s
}
