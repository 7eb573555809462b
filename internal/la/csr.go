package la

// CSR is a sparse matrix in compressed-sparse-row format, the storage
// used by every PDE operator in this repository.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len nnz
	Val        []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MatVec computes y = A·x into y (allocated if nil) and returns it.
func (m *CSR) MatVec(x []float64, y []float64) []float64 {
	CheckLen("x", x, m.Cols)
	if y == nil {
		y = make([]float64, m.Rows)
	} else {
		CheckLen("y", y, m.Rows)
	}
	SpMVRows(m.RowPtr[:m.Rows+1], m.ColIdx, m.Val, x, y)
	return y
}

// At returns A(i, j) (0 for non-stored entries) by binary search over the
// row. Intended for tests and assembly checks, not hot loops.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.ColIdx[mid] == j:
			return m.Val[mid]
		case m.ColIdx[mid] < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Diag returns a copy of the diagonal.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// NormInf returns the infinity (max absolute row-sum) norm, the bound the
// skeptical NormBound check uses: ‖A·x‖∞ ≤ ‖A‖∞·‖x‖∞.
func (m *CSR) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := m.Val[p]
			if v < 0 {
				v = -v
			}
			s += v
		}
		if s > max {
			max = s
		}
	}
	return max
}

// ColSums returns the vector of column sums eᵀA, the precomputed metadata
// of the checksummed SpMV (see internal/abft).
func (m *CSR) ColSums() []float64 {
	c := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c[m.ColIdx[p]] += m.Val[p]
		}
	}
	return c
}
