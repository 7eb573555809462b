package problems

import (
	"math"

	"repro/internal/la"
)

// AnisoPoisson2D returns the anisotropic Poisson operator
// -epsX·u_xx - epsY·u_yy on an nx×ny grid with Dirichlet boundaries,
// discretised with the 5-point stencil (scaled by h², like Poisson2D).
// It is symmetric positive definite with a *constant* diagonal, so
// Jacobi preconditioning is provably useless on it — the workload that
// separates real preconditioners (block-ILU, Chebyshev) from diagonal
// scaling. Strong anisotropy (epsX ≫ epsY or vice versa) degrades the
// conditioning and with it unpreconditioned CG.
func AnisoPoisson2D(nx, ny int, epsX, epsY float64) *la.CSR {
	if epsX <= 0 || epsY <= 0 {
		panic("problems: AnisoPoisson2D needs positive diffusion coefficients")
	}
	return stencil5(nx, ny, func(i, j int) (c, w, e, s, n float64) {
		return 2*epsX + 2*epsY, -epsX, -epsX, -epsY, -epsY
	})
}

// AnisoPoisson2DBounds returns the exact extreme eigenvalues of
// AnisoPoisson2D(nx, ny, epsX, epsY), the spectral interval Chebyshev
// iteration and preconditioning need. Poisson2D(nx, ny) is the case
// epsX = epsY = 1.
func AnisoPoisson2DBounds(nx, ny int, epsX, epsY float64) (lmin, lmax float64) {
	cx := math.Cos(math.Pi / float64(nx+1))
	cy := math.Cos(math.Pi / float64(ny+1))
	return 2*epsX*(1-cx) + 2*epsY*(1-cy), 2*epsX*(1+cx) + 2*epsY*(1+cy)
}

// ConvDiffRot2D returns a convection–diffusion operator with a
// *recirculating* wind field: -Δu + strength·w·∇u on the unit square,
// w(x, y) = (y − ½, ½ − x) — a rotation about the domain centre — with
// first-order upwind differencing chosen per node by the local wind
// sign. Unlike ConvDiff2D's constant wind, the upwind direction varies
// over the domain, so no diagonal ordering is globally "with the flow":
// the classic hard nonsymmetric test for preconditioned GMRES. Scaled
// by h² (h = 1/(nx+1)); rows remain weakly diagonally dominant, so the
// matrix is an M-matrix and ILU(0) exists.
func ConvDiffRot2D(nx, ny int, strength float64) *la.CSR {
	h := 1.0 / float64(nx+1)
	k := 1.0 / float64(ny+1)
	return stencil5(nx, ny, func(i, j int) (c, w, e, s, n float64) {
		x := float64(i+1) * h
		y := float64(j+1) * k
		wx := strength * (y - 0.5)
		wy := strength * (0.5 - x)
		// Upwinding: the convection coefficient joins the diagonal
		// and the neighbour the flow comes *from*.
		cx := wx * h // already h²-scaled: (w ∂u/∂x)·h² / h
		cy := wy * k
		diag := 4.0
		west, east := -1.0, -1.0
		south, north := -1.0, -1.0
		if cx >= 0 {
			diag += cx
			west -= cx
		} else {
			diag -= cx
			east += cx
		}
		if cy >= 0 {
			diag += cy
			south -= cy
		} else {
			diag -= cy
			north += cy
		}
		return diag, west, east, south, north
	})
}
