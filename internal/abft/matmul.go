// Package abft implements classic algorithm-based fault tolerance after
// Huang and Abraham (1984), the lineage the paper cites as [4] and argues
// is subsumed by skeptical programming (§III-A): the checksum metadata
// used to recover state "can also be used to detect anomalous behavior".
//
// The scheme: augment A with a column-checksum row (eᵀA) and B with a
// row-checksum column (B·e). The product of the augmented matrices then
// carries both checksums of C = A·B:
//
//	[A; eᵀA] · [B | B·e] = [C, C·e; eᵀC, eᵀC·e]
//
// A single corrupted element C(i,j) violates exactly row-checksum i and
// column-checksum j, which both detects and locates it; the row checksum
// then reconstructs the correct value. This is detection *and* correction
// from pure arithmetic invariants — no replication, no checkpoint.
package abft

import (
	"math"

	"repro/internal/la"
)

// Report describes what the verifier found in one checked product.
type Report struct {
	Detected  bool
	Located   bool
	Row, Col  int // location of the (single) corrupted element
	Corrected bool
	BadRows   []int // row checksums that failed
	BadCols   []int // column checksums that failed
}

// Checked multiplies a·b with Huang–Abraham checksums. The inject
// callback (may be nil) is applied to the full augmented product before
// verification, modelling faults that strike during or after the
// multiplication. It returns the (possibly corrected) product C, and the
// report. tol is the relative checksum tolerance; pass 0 for a default
// scaled to the matrix magnitudes.
func Checked(a, b *la.Dense, inject func(c *la.Dense), tol float64) (*la.Dense, Report) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k {
		panic("abft: shape mismatch")
	}

	// Build augmented matrices.
	af := la.NewDense(m+1, k)
	for i := 0; i < m; i++ {
		copy(af.Row(i), a.Row(i))
	}
	for j := 0; j < k; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += a.At(i, j)
		}
		af.Set(m, j, s)
	}
	bf := la.NewDense(k, n+1)
	for i := 0; i < k; i++ {
		copy(bf.Row(i)[:n], b.Row(i))
		bf.Set(i, n, la.Sum(b.Row(i)))
	}

	// The checked product.
	cf := af.MatMul(bf)
	if inject != nil {
		inject(cf)
	}
	return Verify(cf, m, n, tol)
}

// Verify checks the (m+1)×(n+1) augmented product cf, attempting to
// locate and correct a single corrupted data element. It returns the
// corrected m×n data block and the report.
func Verify(cf *la.Dense, m, n int, tol float64) (*la.Dense, Report) {
	var rep Report
	if tol <= 0 {
		// Scale to the magnitudes involved: checksum comparisons lose
		// ~‖row‖·ε to rounding.
		maxAbs := 0.0
		for _, v := range cf.Data {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		tol = 1e-10 * (1 + maxAbs) * float64(n+1)
	}

	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += cf.At(i, j)
		}
		if math.Abs(s-cf.At(i, n)) > tol {
			rep.BadRows = append(rep.BadRows, i)
		}
	}
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += cf.At(i, j)
		}
		if math.Abs(s-cf.At(m, j)) > tol {
			rep.BadCols = append(rep.BadCols, j)
		}
	}
	rep.Detected = len(rep.BadRows) > 0 || len(rep.BadCols) > 0

	// Single-element data corruption: one bad row and one bad column.
	if len(rep.BadRows) == 1 && len(rep.BadCols) == 1 {
		i, j := rep.BadRows[0], rep.BadCols[0]
		rep.Located = true
		rep.Row, rep.Col = i, j
		// Reconstruct from the row checksum.
		s := cf.At(i, n)
		for j2 := 0; j2 < n; j2++ {
			if j2 != j {
				s -= cf.At(i, j2)
			}
		}
		cf.Set(i, j, s)
		rep.Corrected = true
	}
	// A corrupted checksum element itself shows as one bad row XOR one
	// bad column; the data block is intact, so nothing to correct.

	out := la.NewDense(m, n)
	for i := 0; i < m; i++ {
		copy(out.Row(i), cf.Row(i)[:n])
	}
	return out, rep
}
