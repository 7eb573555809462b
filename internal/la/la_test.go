package la

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// clamp maps arbitrary quick-generated floats into a tame range so
// property tests exercise arithmetic identities, not overflow.
func clamp(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 1
		}
		out = append(out, math.Mod(x, 1e6))
	}
	return out
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x, y := clamp(a[:n]), clamp(b[:n])
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxpyLinearityProperty(t *testing.T) {
	// axpy(a, x, y) then axpy(-a, x, y) returns y to (near) itself.
	f := func(raw []float64, aRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := math.Mod(aRaw, 100)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 2
		}
		x := clamp(raw)
		y := make([]float64, len(x))
		for i := range y {
			y[i] = float64(i) - 3
		}
		orig := Copy(y)
		Axpy(a, x, y)
		Axpy(-a, x, y)
		for i := range y {
			scale := math.Abs(orig[i]) + math.Abs(a*x[i]) + 1
			if math.Abs(y[i]-orig[i]) > 1e-12*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNrm2MatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		x := clamp(raw)
		naive := 0.0
		for _, v := range x {
			naive += v * v
		}
		naive = math.Sqrt(naive)
		got := Nrm2(x)
		return math.Abs(got-naive) <= 1e-10*(1+naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGivensNormPreservingProperty(t *testing.T) {
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(aRaw, 1e8)
		b := math.Mod(bRaw, 1e8)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 3
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			b = 4
		}
		g, r := MakeGivens(a, b)
		// r must carry the norm, and the rotation must annihilate b.
		rr, zero := g.Apply(a, b)
		hyp := math.Hypot(a, b)
		return math.Abs(math.Abs(r)-hyp) <= 1e-12*(1+hyp) &&
			math.Abs(rr-r) <= 1e-12*(1+hyp) &&
			math.Abs(zero) <= 1e-12*(1+hyp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRMatchesDenseProperty(t *testing.T) {
	rng := machine.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		b := triplets{}
		d := NewDense(rows, cols)
		nnz := rng.Intn(rows * cols * 2)
		for k := 0; k < nnz; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := 2*rng.Float64() - 1
			b.add(i, j, v) // duplicates must sum
			d.Set(i, j, d.At(i, j)+v)
		}
		m := b.csr(rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		ys := m.MatVec(x, nil)
		for i := range ys {
			if yd := Dot(d.Row(i), x); math.Abs(ys[i]-yd) > 1e-12 {
				t.Fatalf("trial %d: row %d: CSR %g vs dense %g", trial, i, ys[i], yd)
			}
		}
		// Structure invariants.
		if m.NNZ() != m.RowPtr[rows] {
			t.Fatalf("NNZ inconsistency")
		}
		for i := 0; i < rows; i++ {
			for p := m.RowPtr[i] + 1; p < m.RowPtr[i+1]; p++ {
				if m.ColIdx[p-1] >= m.ColIdx[p] {
					t.Fatalf("row %d columns not strictly sorted", i)
				}
			}
		}
		// At must agree with dense everywhere.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(m.At(i, j)-d.At(i, j)) > 1e-12 {
					t.Fatalf("At(%d,%d) mismatch", i, j)
				}
			}
		}
	}
}

func TestCSRColSumsAndNormInf(t *testing.T) {
	b := triplets{}
	b.add(0, 0, 2)
	b.add(0, 2, -3)
	b.add(1, 1, 5)
	b.add(2, 0, 1)
	m := b.csr(3, 3)
	cs := m.ColSums()
	want := []float64{3, 5, -3}
	for i := range want {
		if cs[i] != want[i] {
			t.Errorf("ColSums[%d] = %g, want %g", i, cs[i], want[i])
		}
	}
	if m.NormInf() != 5 {
		t.Errorf("NormInf = %g, want 5", m.NormInf())
	}
}

func TestDenseMatMulIdentity(t *testing.T) {
	rng := machine.NewRNG(5)
	a := RandomDense(7, 7, rng.Float64)
	eye := NewDense(7, 7)
	for i := 0; i < 7; i++ {
		eye.Set(i, i, 1)
	}
	if got := a.MatMul(eye); !got.Equal(a, 1e-14) {
		t.Error("A·I != A")
	}
	if got := eye.MatMul(a); !got.Equal(a, 1e-14) {
		t.Error("I·A != A")
	}
}

func TestHasNonFinite(t *testing.T) {
	if HasNonFinite([]float64{1, 2, 3}) {
		t.Error("false positive")
	}
	if !HasNonFinite([]float64{1, math.NaN()}) {
		t.Error("missed NaN")
	}
	if !HasNonFinite([]float64{math.Inf(-1)}) {
		t.Error("missed -Inf")
	}
}

// TestNrmInfNaN: a NaN anywhere makes the norm NaN, where skipping it
// would report an all-NaN vector as norm 0.
func TestNrmInfNaN(t *testing.T) {
	if got := NrmInf([]float64{-3, 2, math.Inf(1)}); got != math.Inf(1) {
		t.Errorf("NrmInf with +Inf = %v", got)
	}
	for _, x := range [][]float64{{math.NaN()}, {math.NaN(), math.NaN()}, {1, math.NaN(), 5}, {5, math.Inf(-1), math.NaN()}} {
		if got := NrmInf(x); !math.IsNaN(got) {
			t.Errorf("NrmInf(%v) = %v, want NaN", x, got)
		}
	}
}

// triplets is the tests' builder for scattered patterns: add sums
// duplicate (i, j) entries in insertion order from +0, and csr stores
// each row's entries in ascending column order.
type triplets map[[2]int]float64

func (t triplets) add(i, j int, v float64) { t[[2]int{i, j}] += v }

func (t triplets) csr(rows, cols int) *CSR {
	keys := slices.SortedFunc(maps.Keys(t), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for _, k := range keys {
		m.ColIdx = append(m.ColIdx, k[1])
		m.Val = append(m.Val, t[k])
		m.RowPtr[k[0]+1]++
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}
