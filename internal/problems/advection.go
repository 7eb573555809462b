package problems

import "math"

// AdvectionInitial samples the smooth pulse u(x) = 1 + sin²(2πx) at
// cells [lo, hi) of a periodic ring of n (strictly positive so relative
// mass drift is well scaled). The LFLR advection app starts each rank's
// segment from it, and so does the serial reference its tests compare
// against (internal/lflr/reference_test.go), so both start from the
// same bits.
func AdvectionInitial(n, lo, hi int) []float64 {
	u := make([]float64, hi-lo)
	for i := range u {
		x := float64(lo+i) / float64(n)
		s := math.Sin(2 * math.Pi * x)
		u[i] = 1 + s*s
	}
	return u
}
