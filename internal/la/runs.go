package la

// RowRun is a maximal range of consecutive CSR rows [Lo, Hi) whose
// entries sit at the same column offsets (column − row) in the same
// storage order: each row i of the run stores exactly the columns
// i+Off[0], i+Off[1], … in that order, so the run's values are one
// block of (Hi−Lo)·len(Off) entries with a row every len(Off). On a
// stencil matrix a run is a stretch of interior rows, and a loop over
// it can address the operand by offset instead of loading a column
// index per non-zero.
type RowRun struct {
	Lo, Hi int
	Off    []int
}

// RowRuns splits the CSR pattern (rowPtr, colIdx) into its row runs, in
// row order: they partition the len(rowPtr)−1 rows. Runs depend on the
// pattern alone, so whoever owns a fixed pattern builds them once
// beside it.
func RowRuns(rowPtr, colIdx []int) []RowRun {
	var runs []RowRun
	width := 0
	for i := 0; i+1 < len(rowPtr); i++ {
		if n := len(runs); n > 0 && sameOffsets(rowPtr, colIdx, i) {
			runs[n-1].Hi++
			continue
		}
		runs = append(runs, RowRun{Lo: i, Hi: i + 1})
		width += rowPtr[i+1] - rowPtr[i]
	}
	off := make([]int, 0, width)
	for k := range runs {
		r := &runs[k]
		at := len(off)
		for _, j := range colIdx[rowPtr[r.Lo]:rowPtr[r.Lo+1]] {
			off = append(off, j-r.Lo)
		}
		r.Off = off[at:len(off):len(off)]
	}
	return runs
}

// sameOffsets reports whether row i stores its columns at the same
// offsets, in the same order, as row i−1.
func sameOffsets(rowPtr, colIdx []int, i int) bool {
	prev := colIdx[rowPtr[i-1]:rowPtr[i]]
	cur := colIdx[rowPtr[i]:rowPtr[i+1]]
	if len(prev) != len(cur) {
		return false
	}
	for k, j := range cur {
		if j-i != prev[k]-(i-1) {
			return false
		}
	}
	return true
}

// SpMVRuns computes y = A·x like SpMVRows, bit for bit, walking runs =
// RowRuns(rowPtr, colIdx): a run of several rows of width 3, 4 or 5
// goes through a fixed-width loop that reads the operand through one
// sub-slice per offset and loads no column index; every other run —
// one row, or another width — goes to SpMVRows. Each y[i] is still
// Σ val[q]·x[colIdx[q]] summed in storage order from +0.0.
func SpMVRuns(runs []RowRun, rowPtr, colIdx []int, val, x, y []float64) {
	if len(rowPtr) != len(y)+1 {
		panic("la: SpMVRuns rowPtr/y length mismatch")
	}
	for _, r := range runs {
		lo, hi := r.Lo, r.Hi
		if hi-lo > 1 {
			v, ys := val[rowPtr[lo]:rowPtr[hi]], y[lo:hi]
			switch len(r.Off) {
			case 3:
				spmvRun3(r.Off, lo, v, x, ys)
				continue
			case 4:
				spmvRun4(r.Off, lo, v, x, ys)
				continue
			case 5:
				spmvRun5(r.Off, lo, v, x, ys)
				continue
			}
		}
		SpMVRows(rowPtr[lo:hi+1], colIdx, val, x, y[lo:hi])
	}
}

// spmvRun3, spmvRun4 and spmvRun5 are the fixed-width run loops: y is
// the run's rows (the first is row lo), v its values, xk the operand
// seen through offset k.

func spmvRun3(off []int, lo int, v, x, y []float64) {
	n := len(y)
	x0, x1, x2 := x[lo+off[0]:][:n], x[lo+off[1]:][:n], x[lo+off[2]:][:n]
	v = v[:3*n]
	for i := range y {
		w := v[3*i : 3*i+3 : 3*i+3]
		s := 0.0
		s += w[0] * x0[i]
		s += w[1] * x1[i]
		s += w[2] * x2[i]
		y[i] = s
	}
}

func spmvRun4(off []int, lo int, v, x, y []float64) {
	n := len(y)
	x0, x1, x2, x3 := x[lo+off[0]:][:n], x[lo+off[1]:][:n], x[lo+off[2]:][:n], x[lo+off[3]:][:n]
	v = v[:4*n]
	for i := range y {
		w := v[4*i : 4*i+4 : 4*i+4]
		s := 0.0
		s += w[0] * x0[i]
		s += w[1] * x1[i]
		s += w[2] * x2[i]
		s += w[3] * x3[i]
		y[i] = s
	}
}

func spmvRun5(off []int, lo int, v, x, y []float64) {
	n := len(y)
	x0, x1, x2, x3, x4 := x[lo+off[0]:][:n], x[lo+off[1]:][:n], x[lo+off[2]:][:n], x[lo+off[3]:][:n], x[lo+off[4]:][:n]
	v = v[:5*n]
	for i := range y {
		w := v[5*i : 5*i+5 : 5*i+5]
		s := 0.0
		s += w[0] * x0[i]
		s += w[1] * x1[i]
		s += w[2] * x2[i]
		s += w[3] * x3[i]
		s += w[4] * x4[i]
		y[i] = s
	}
}
