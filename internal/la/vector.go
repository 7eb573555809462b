// Package la provides the serial dense/sparse linear-algebra kernels the
// resilient solvers are built from: BLAS-1 vector operations, a
// row-major dense matrix, CSR sparse matrices, Givens rotations, and
// small-matrix utilities. Everything is plain float64 slices so the
// selective-reliability wrappers in internal/mem and the fault injectors
// in internal/fault can instrument data without adapters.
package la

import (
	"fmt"
	"math"
)

// Dot returns xᵀy. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("la: Dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow the way
// LAPACK's dnrm2 does (scaled accumulation).
func Nrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Nrm1 returns the 1-norm of x.
func Nrm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NrmInf returns the infinity norm of x, or NaN if any element is NaN:
// a comparison with NaN is false, so skipping the element would report
// an all-NaN vector as norm 0.
func NrmInf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		if math.IsNaN(v) {
			return v
		}
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Axpy computes y += a*x in place. It panics if the lengths differ.
// Unrolled by four: elements are independent, so the unroll changes no
// bit (see kernels.go for the contract).
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: Axpy length mismatch")
	}
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
	}
	for i := n; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// Scal scales x by a in place.
func Scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Copy returns a fresh copy of x.
func Copy(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Sub computes z = x - y into a fresh slice.
func Sub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("la: Sub length mismatch")
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] - y[i]
	}
	return z
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// HasNonFinite reports whether x contains a NaN or an infinity — the
// cheapest skeptical check of all.
func HasNonFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Givens holds a Givens rotation (c, s) annihilating the second component
// of (a, b)ᵀ: [c s; -s c]·(a,b)ᵀ = (r,0)ᵀ.
type Givens struct {
	C, S float64
}

// MakeGivens constructs the rotation for (a, b) and returns it with r.
// It uses the LAPACK dlartg-style stable formulation.
func MakeGivens(a, b float64) (g Givens, r float64) {
	switch {
	case b == 0:
		return Givens{C: 1, S: 0}, a
	case a == 0:
		return Givens{C: 0, S: 1}, b
	default:
		r = math.Hypot(a, b)
		return Givens{C: a / r, S: b / r}, r
	}
}

// Apply rotates the pair (a, b).
func (g Givens) Apply(a, b float64) (float64, float64) {
	return g.C*a + g.S*b, -g.S*a + g.C*b
}

// FlopsDot returns the flop count of a dot product of length n, used for
// virtual-time accounting (2n: n multiplies + n adds).
func FlopsDot(n int) float64 { return 2 * float64(n) }

// FlopsAxpy returns the flop count of an axpy of length n.
func FlopsAxpy(n int) float64 { return 2 * float64(n) }

// CheckLen panics with a descriptive message unless len(x) == n.
func CheckLen(name string, x []float64, n int) {
	if len(x) != n {
		panic(fmt.Sprintf("la: %s has length %d, want %d", name, len(x), n))
	}
}
