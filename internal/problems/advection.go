package problems

import "math"

// Advection1D is a serial first-order upwind advection stepper on a
// periodic ring of n cells:
//
//	u'_i = u_i − c·(u_i − u_{i−1 mod n}),   0 < c ≤ 1 (CFL number).
//
// The scheme conserves total mass Σu exactly in exact arithmetic — an
// *equality* invariant, unlike the heat equation's one-sided energy
// decay, which makes its skeptical conservation check two-sided: silent
// corruption is detectable whichever direction the flip moved the value.
type Advection1D struct {
	N       int
	C       float64
	U       []float64
	scratch []float64
}

// NewAdvection1D allocates a ring holding AdvectionInitial on every cell.
func NewAdvection1D(n int, c float64) *Advection1D {
	return &Advection1D{N: n, C: c, U: AdvectionInitial(n, 0, n), scratch: make([]float64, n)}
}

// AdvectionInitial samples the smooth pulse u(x) = 1 + sin²(2πx) at
// cells [lo, hi) of a periodic ring of n (strictly positive so relative
// mass drift is well scaled). The LFLR advection app starts each rank's
// segment from it, so it and NewAdvection1D start from the same bits.
func AdvectionInitial(n, lo, hi int) []float64 {
	u := make([]float64, hi-lo)
	for i := range u {
		x := float64(lo+i) / float64(n)
		s := math.Sin(2 * math.Pi * x)
		u[i] = 1 + s*s
	}
	return u
}

// Step advances one upwind step.
func (a *Advection1D) Step() {
	u, v := a.U, a.scratch
	n := a.N
	for i := 0; i < n; i++ {
		left := u[(i-1+n)%n]
		v[i] = u[i] - a.C*(u[i]-left)
	}
	a.U, a.scratch = v, u
}

// Run advances steps time steps.
func (a *Advection1D) Run(steps int) {
	for s := 0; s < steps; s++ {
		a.Step()
	}
}

// Mass returns the conserved total Σu.
func (a *Advection1D) Mass() float64 {
	s := 0.0
	for _, v := range a.U {
		s += v
	}
	return s
}
