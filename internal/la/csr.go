package la

import "fmt"

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

// COO is a coordinate-format triplet builder that assembles into CSR.
type COO struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewCOO returns an empty builder for a rows×cols matrix.
func NewCOO(rows, cols int) *COO {
	return &COO{rows: rows, cols: cols}
}

// Add appends entry (i, j, v). Duplicate (i, j) pairs are summed by
// ToCSR, matching standard finite-element assembly semantics.
func (b *COO) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("la: COO entry (%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	b.i = append(b.i, i)
	b.j = append(b.j, j)
	b.v = append(b.v, v)
}

// ToCSR assembles the triplets into CSR with sorted column indices and
// summed duplicates.
func (b *COO) ToCSR() *CSR {
	// Count entries per row, then bucket, then sort each row by column
	// (insertion sort per row: PDE stencils have O(1) entries per row).
	count := make([]int, b.rows+1)
	for _, i := range b.i {
		count[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		count[i+1] += count[i]
	}
	nnz := len(b.v)
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, b.rows)
	copy(next, count[:b.rows])
	for k := 0; k < nnz; k++ {
		p := next[b.i[k]]
		colIdx[p] = b.j[k]
		val[p] = b.v[k]
		next[b.i[k]]++
	}
	for i := 0; i < b.rows; i++ {
		lo, hi := count[i], count[i+1]
		for p := lo + 1; p < hi; p++ {
			cj, cv := colIdx[p], val[p]
			q := p
			for q > lo && colIdx[q-1] > cj {
				colIdx[q], val[q] = colIdx[q-1], val[q-1]
				q--
			}
			colIdx[q], val[q] = cj, cv
		}
	}
	// Merge duplicates in place.
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	outIdx := make([]int, 0, nnz)
	outVal := make([]float64, 0, nnz)
	for i := 0; i < b.rows; i++ {
		lo, hi := count[i], count[i+1]
		for p := lo; p < hi; {
			j := colIdx[p]
			s := 0.0
			for p < hi && colIdx[p] == j {
				s += val[p]
				p++
			}
			outIdx = append(outIdx, j)
			outVal = append(outVal, s)
		}
		m.RowPtr[i+1] = len(outIdx)
	}
	m.ColIdx = outIdx
	m.Val = outVal
	return m
}

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
