// Package problems generates the model PDE workloads the experiments run
// on: Poisson operators (symmetric positive definite, for CG), a 2D
// convection–diffusion operator (nonsymmetric, for GMRES), and the
// serial heat and advection steppers the LFLR apps are checked against,
// with the initial conditions both sides start from. These are the
// canonical problems of the papers this position paper cites.
package problems

import (
	"math"

	"repro/internal/la"
)

// Poisson1D returns the n×n tridiagonal [-1, 2, -1] operator (Dirichlet
// boundaries, unit grid spacing).
func Poisson1D(n int) *la.CSR {
	b := la.NewCOO(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.ToCSR()
}

// Poisson2D returns the 5-point Laplacian on an nx×ny grid with Dirichlet
// boundaries (matrix dimension nx*ny).
func Poisson2D(nx, ny int) *la.CSR {
	n := nx * ny
	b := la.NewCOO(n, n)
	id := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := id(i, j)
			b.Add(r, r, 4)
			if i > 0 {
				b.Add(r, id(i-1, j), -1)
			}
			if i < nx-1 {
				b.Add(r, id(i+1, j), -1)
			}
			if j > 0 {
				b.Add(r, id(i, j-1), -1)
			}
			if j < ny-1 {
				b.Add(r, id(i, j+1), -1)
			}
		}
	}
	return b.ToCSR()
}

// ConvDiff2D returns a 2D convection–diffusion operator
// -Δu + (wx, wy)·∇u discretised with central differences for diffusion
// and first-order upwind for convection on an nx×ny grid (h = 1/(nx+1)).
// The matrix is nonsymmetric — the standard GMRES test problem.
func ConvDiff2D(nx, ny int, wx, wy float64) *la.CSR {
	n := nx * ny
	h := 1.0 / float64(nx+1)
	b := la.NewCOO(n, n)
	id := func(i, j int) int { return j*nx + i }
	// Upwind convection coefficients (assume wx, wy >= 0 upwinds west/south).
	cx, cy := wx*h, wy*h
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := id(i, j)
			b.Add(r, r, 4+cx+cy)
			if i > 0 {
				b.Add(r, id(i-1, j), -1-cx)
			}
			if i < nx-1 {
				b.Add(r, id(i+1, j), -1)
			}
			if j > 0 {
				b.Add(r, id(i, j-1), -1-cy)
			}
			if j < ny-1 {
				b.Add(r, id(i, j+1), -1)
			}
		}
	}
	return b.ToCSR()
}

// ManufacturedRHS returns b = A·x* for the smooth manufactured solution
// x*_k = sin(π(k+1)/(n+1)), along with x* itself, so solvers can be
// checked against a known answer.
func ManufacturedRHS(a *la.CSR) (rhs, xstar []float64) {
	n := a.Cols
	xstar = make([]float64, n)
	for k := range xstar {
		xstar[k] = math.Sin(math.Pi * float64(k+1) / float64(n+1))
	}
	rhs = a.MatVec(xstar, nil)
	return rhs, xstar
}

// OnesRHS returns the all-ones right-hand side of length n.
func OnesRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}
