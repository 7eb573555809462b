// Package problems generates the model PDE workloads the experiments run
// on: Poisson operators (symmetric positive definite, for CG), a 2D
// convection–diffusion operator (nonsymmetric, for GMRES), and the
// initial conditions of the LFLR heat and advection apps (their serial
// reference steppers live in internal/lflr's tests). These are the
// canonical problems of the papers this position paper cites.
package problems

import (
	"math"

	"repro/internal/la"
)

// Poisson1D returns the n×n tridiagonal [-1, 2, -1] operator (Dirichlet
// boundaries, unit grid spacing).
func Poisson1D(n int) *la.CSR {
	return stencil5(n, 1, func(i, j int) (c, w, e, s, n float64) { return 2, -1, -1, 0, 0 })
}

// Poisson2D returns the 5-point Laplacian on an nx×ny grid with Dirichlet
// boundaries (matrix dimension nx*ny).
func Poisson2D(nx, ny int) *la.CSR {
	return stencil5(nx, ny, func(i, j int) (c, w, e, s, n float64) { return 4, -1, -1, -1, -1 })
}

// ConvDiff2D returns a 2D convection–diffusion operator
// -Δu + (wx, wy)·∇u discretised with central differences for diffusion
// and first-order upwind for convection on an nx×ny grid (h = 1/(nx+1)).
// The matrix is nonsymmetric — the standard GMRES test problem.
func ConvDiff2D(nx, ny int, wx, wy float64) *la.CSR {
	h := 1.0 / float64(nx+1)
	// Upwind convection coefficients (assume wx, wy >= 0 upwinds west/south).
	cx, cy := wx*h, wy*h
	return stencil5(nx, ny, func(i, j int) (c, w, e, s, n float64) {
		return 4 + cx + cy, -1 - cx, -1, -1 - cy, -1
	})
}

// stencil5 assembles a 5-point operator on an nx×ny grid with Dirichlet
// boundaries straight into CSR: row j*nx+i holds node (i, j), and coef
// returns its centre, west, east, south and north coefficients. Rows
// are appended in order, each row's entries in ascending column order
// — south, west, centre, east, north — keeping the neighbours inside
// the grid. A value is stored as 0.0 + v, the sum a duplicate-summing
// assembly starts from +0, so a −0 coefficient lands as +0.
func stencil5(nx, ny int, coef func(i, j int) (c, w, e, s, n float64)) *la.CSR {
	rows := nx * ny
	nnz := max(0, 5*rows-2*nx-2*ny)
	ptr, col, val := make([]int, rows+1), make([]int, nnz), make([]float64, nnz)
	q := 0
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := j*nx + i
			c, w, e, s, n := coef(i, j)
			if j > 0 {
				col[q], val[q] = r-nx, 0.0+s
				q++
			}
			if i > 0 {
				col[q], val[q] = r-1, 0.0+w
				q++
			}
			col[q], val[q] = r, 0.0+c
			q++
			if i < nx-1 {
				col[q], val[q] = r+1, 0.0+e
				q++
			}
			if j < ny-1 {
				col[q], val[q] = r+nx, 0.0+n
				q++
			}
			ptr[r+1] = q
		}
	}
	return &la.CSR{Rows: rows, Cols: rows, RowPtr: ptr, ColIdx: col, Val: val}
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
