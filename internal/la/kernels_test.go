package la

import (
	"math"
	"testing"

	"repro/internal/machine"
)

// The kernels' contract is bitwise: each must give exactly what the
// naive loop it replaced gives, on every length (all remainders of the
// unroll), on aliased operands and on the values real runs never see
// until a bit flips. The references below are those loops, verbatim.

func naiveAxpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

func naiveDot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func naiveSpMV(rowPtr, colIdx []int, val, x, y []float64) {
	for i := range y {
		s := 0.0
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			s += val[p] * x[colIdx[p]]
		}
		y[i] = s
	}
}

// awkward are the values a kernel could get wrong without any ordinary
// test noticing: signed zeros, subnormals, infinities, and NaNs with
// payloads (quiet, negative, signalling).
var awkward = []float64{
	0, math.Copysign(0, -1),
	5e-324, -2.5e-310, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.NaN(),
	math.Float64frombits(0x7ff8000000000abc),
	math.Float64frombits(0xfff8000000000001),
	math.Float64frombits(0x7ff4000000000002),
}

// testVec returns n values from rng; with spice, roughly one in six is
// drawn from awkward.
func testVec(rng *machine.RNG, n int, spice bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		if spice && rng.Intn(6) == 0 {
			v[i] = awkward[rng.Intn(len(awkward))]
		} else {
			v[i] = (rng.Float64() - 0.5) * math.Exp2(float64(rng.Intn(40)-20))
		}
	}
	return v
}

// sameBits requires got and want to agree bit for bit. The one thing
// left open is which NaN a NaN-valued result is: when two different
// NaNs meet in one operation the hardware keeps the first operand's
// payload, and which operand is first is the compiler's register
// allocation — in the naive loop as much as in the kernel — so a NaN
// matches any NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d is %x (%v), want %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestAxpyBitwiseNaive(t *testing.T) {
	rng := machine.NewRNG(1)
	for n := 0; n <= 67; n++ {
		for _, spice := range []bool{false, true} {
			a := testVec(rng, 1, false)[0]
			x, y := testVec(rng, n, spice), testVec(rng, n, spice)
			want := Copy(y)
			naiveAxpy(a, x, want)
			Axpy(a, x, y)
			sameBits(t, "Axpy", y, want)

			// x aliasing y: y += a·y.
			want = Copy(x)
			naiveAxpy(a, want, want)
			Axpy(a, x, x)
			sameBits(t, "Axpy, x aliasing y", x, want)
		}
	}
}

func TestAxpyDotBitwiseNaive(t *testing.T) {
	rng := machine.NewRNG(2)
	for n := 0; n <= 67; n++ {
		for _, spice := range []bool{false, true} {
			a := testVec(rng, 1, false)[0]
			x, y, u := testVec(rng, n, spice), testVec(rng, n, spice), testVec(rng, n, spice)
			want := Copy(y)
			naiveAxpy(a, x, want)
			wantDot := naiveDot(want, u)
			got := AxpyDot(a, x, y, u)
			sameBits(t, "AxpyDot y", y, want)
			sameBits(t, "AxpyDot sum", []float64{got}, []float64{wantDot})

			// u aliasing y: the closing norm sums the updated y·y.
			y = testVec(rng, n, spice)
			want = Copy(y)
			naiveAxpy(a, x, want)
			wantDot = naiveDot(want, want)
			got = AxpyDot(a, x, y, y)
			sameBits(t, "AxpyDot y, u aliasing y", y, want)
			sameBits(t, "AxpyDot sum, u aliasing y", []float64{got}, []float64{wantDot})
		}
	}
}

// testCSR builds a rows×cols CSR triple whose rows have random lengths
// — empty ones among them — with columns in random order and repeats
// allowed; row `full`, when in range, touches every column once, in
// descending order.
func testCSR(rng *machine.RNG, rows, cols, full int, spice bool) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, rows+1)
	for i := 0; i < rows; i++ {
		switch {
		case i == full:
			for j := cols - 1; j >= 0; j-- {
				colIdx = append(colIdx, j)
			}
		case cols > 0 && rng.Intn(4) != 0:
			for k := rng.Intn(9); k > 0; k-- {
				colIdx = append(colIdx, rng.Intn(cols))
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx, testVec(rng, len(colIdx), spice)
}

func TestSpMVRowsBitwiseNaive(t *testing.T) {
	rng := machine.NewRNG(3)
	for n := 0; n <= 67; n++ {
		for _, spice := range []bool{false, true} {
			rows, cols := n, 1+rng.Intn(70)
			rowPtr, colIdx, val := testCSR(rng, rows, cols, n/2, spice)
			x := testVec(rng, cols, spice)
			got, want := testVec(rng, rows, false), make([]float64, rows)
			naiveSpMV(rowPtr, colIdx, val, x, want)
			SpMVRows(rowPtr, colIdx, val, x, got)
			sameBits(t, "SpMVRows", got, want)

			// MatVec is the same loop behind the CSR type.
			m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
			sameBits(t, "MatVec", m.MatVec(x, nil), want)
		}
	}
	// A window of larger arrays whose row pointers do not start at
	// zero, and no rows at all.
	rowPtr, colIdx, val := testCSR(rng, 20, 30, 7, true)
	x := testVec(rng, 30, true)
	got, want := make([]float64, 12), make([]float64, 12)
	naiveSpMV(rowPtr[5:], colIdx, val, x, want)
	SpMVRows(rowPtr[5:18], colIdx, val, x, got)
	sameBits(t, "SpMVRows on a window", got, want)
	SpMVRows(rowPtr[:1], colIdx, val, x, nil)
}

func TestKernelsDoNotAllocate(t *testing.T) {
	rng := machine.NewRNG(4)
	const n = 67
	x, y, u := testVec(rng, n, false), testVec(rng, n, false), testVec(rng, n, false)
	rowPtr, colIdx, val := testCSR(rng, n, n, 3, false)
	var sink float64
	if a := testing.AllocsPerRun(20, func() {
		Axpy(0.5, x, y)
		sink += AxpyDot(-0.5, x, y, u) + AxpyDot(0.25, x, y, y)
		SpMVRows(rowPtr, colIdx, val, x, u)
	}); a != 0 {
		t.Errorf("kernels allocate %v times per call set", a)
	}
	_ = sink
}
