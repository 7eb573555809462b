package la

// The rank-local arithmetic kernels every solver's hot path runs on:
// the one CSR row loop (and, in runs.go, the fixed-width loops over row
// runs in front of it), and the fused axpy+dot modified Gram–Schmidt is
// built from. They are written for the compiler (slice headers hoisted
// out of the loops, sub-slices ranged over so bounds checks fall away)
// and for the cache (one trip over a vector where the callers used to
// make two), under one contract: the result is bit for bit what the
// naive loop gives. Every element sees the same floating-point
// operations on the same operands in the same order, and every
// reduction sums left to right from +0.0 in index order — so a kernel
// may be unrolled, but a sum may never be split over two accumulators.
// (One thing Go leaves to the compiler's register allocation, here as
// in the naive loops: which payload survives when two different NaNs
// meet in one operation. Nothing downstream can tell.)
// docs/BENCHMARKING.md "Arithmetic kernels" has the contract, the
// numbers and the variants that were measured and rejected.

// SpMVRows computes y = A·x for the CSR triple (rowPtr, colIdx, val):
// y[i] = Σ val[q]·x[colIdx[q]] over rowPtr[i] ≤ q < rowPtr[i+1], summed
// in storage order. It is the single generic CSR row loop of this
// repository — (*CSR).MatVec calls it, and SpMVRuns, the distributed
// dist.CSR's kernel, hands it every run it has no fixed-width loop for.
// rowPtr must have len(y)+1 entries; x and y must not alias.
func SpMVRows(rowPtr, colIdx []int, val, x, y []float64) {
	if len(rowPtr) != len(y)+1 {
		panic("la: SpMVRows rowPtr/y length mismatch")
	}
	lo := rowPtr[0]
	for i := range y {
		hi := rowPtr[i+1]
		cols := colIdx[lo:hi]
		vals := val[lo:hi]
		vals = vals[:len(cols)] // one bounds check per row, none per entry
		s := 0.0
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] = s
		lo = hi
	}
}

// AxpyDot computes y += a·x in place and returns Σ y[i]·u[i] over the
// updated y, in one trip: each y[i] is stored, then enters the sum, so
// the result is bitwise Axpy(a, x, y) followed by Dot(y, u). u may be y
// itself (the closing norm of a Gram–Schmidt sweep). It panics if the
// lengths differ.
func AxpyDot(a float64, x, y, u []float64) float64 {
	if len(x) != len(y) || len(u) != len(y) {
		panic("la: AxpyDot length mismatch")
	}
	s := 0.0
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		xs, ys, us := x[i:i+4:i+4], y[i:i+4:i+4], u[i:i+4:i+4]
		y0 := ys[0] + a*xs[0]
		ys[0] = y0
		s += y0 * us[0]
		y1 := ys[1] + a*xs[1]
		ys[1] = y1
		s += y1 * us[1]
		y2 := ys[2] + a*xs[2]
		ys[2] = y2
		s += y2 * us[2]
		y3 := ys[3] + a*xs[3]
		ys[3] = y3
		s += y3 * us[3]
	}
	for i := n; i < len(x); i++ {
		yi := y[i] + a*x[i]
		y[i] = yi
		s += yi * u[i]
	}
	return s
}
