package problems

import (
	"math"
	"testing"

	"repro/internal/la"
)

func TestPoisson1DStructure(t *testing.T) {
	a := Poisson1D(5)
	if a.NNZ() != 13 { // 5 diag + 2*4 off
		t.Errorf("nnz = %d", a.NNZ())
	}
	for i := 0; i < 5; i++ {
		if a.At(i, i) != 2 {
			t.Errorf("diag %d = %g", i, a.At(i, i))
		}
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Error("off-diagonals wrong")
	}
}

func TestPoisson2DRowSums(t *testing.T) {
	// Interior rows sum to 0; boundary rows are positive (Dirichlet).
	a := Poisson2D(5, 5)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p]
		}
		if s < 0 {
			t.Fatalf("row %d sum %g < 0", i, s)
		}
	}
	// The exact centre of the 5x5 grid is interior: sum 0.
	centre := 2*5 + 2
	s := 0.0
	for p := a.RowPtr[centre]; p < a.RowPtr[centre+1]; p++ {
		s += a.Val[p]
	}
	if s != 0 {
		t.Errorf("interior row sum %g", s)
	}
}

func TestPoisson2DSymmetric(t *testing.T) {
	a := Poisson2D(6, 4)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != a.At(j, i) {
				t.Fatalf("Poisson2D not symmetric at (%d, %d)", i, j)
			}
		}
	}
}

func TestConvDiffNonsymmetric(t *testing.T) {
	a := ConvDiff2D(6, 6, 10, 5)
	nonsym := false
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			nonsym = nonsym || math.Abs(a.At(i, j)-a.At(j, i)) > 1e-12
		}
	}
	if !nonsym {
		t.Error("convection–diffusion should be nonsymmetric")
	}
	// Row-diagonal dominance (upwinding guarantees it): |diag| >= off sum.
	for i := 0; i < a.Rows; i++ {
		off := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] != i {
				off += math.Abs(a.Val[p])
			}
		}
		if a.At(i, i) < off-1e-12 {
			t.Fatalf("row %d not diagonally dominant: %g vs %g", i, a.At(i, i), off)
		}
	}
}

func TestManufacturedRHSConsistency(t *testing.T) {
	a := Poisson2D(8, 8)
	b, xstar := ManufacturedRHS(a)
	r := la.Sub(b, a.MatVec(xstar, nil))
	if la.Nrm2(r) > 1e-12 {
		t.Error("b != A·x*")
	}
}

func TestOnesRHS(t *testing.T) {
	b := OnesRHS(4)
	for _, v := range b {
		if v != 1 {
			t.Fatal("not ones")
		}
	}
}

// TestStencilStoresPositiveZero: a −0 coefficient is stored as +0, as
// the duplicate-summing COO assembly the generators once went through
// stored it (its merge summed every entry from +0).
func TestStencilStoresPositiveZero(t *testing.T) {
	nz := math.Copysign(0, -1)
	m := stencil5(3, 2, func(i, j int) (c, w, e, s, n float64) { return nz, nz, nz, nz, nz })
	for q, v := range m.Val {
		if math.Signbit(v) {
			t.Fatalf("entry %d (column %d) stored as -0", q, m.ColIdx[q])
		}
	}
}

// BenchmarkPoisson2D: one op assembles the grid-96 Laplacian,
// solve_deep's operator (9216 rows, 45 696 entries).
func BenchmarkPoisson2D(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Poisson2D(96, 96)
	}
}
