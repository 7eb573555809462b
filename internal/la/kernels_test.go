package la

import (
	"math"
	"slices"
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

// signedZeros returns n values, each +0 or −0.
func signedZeros(rng *machine.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = math.Copysign(0, -1)
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

// testRunCSR builds a rows×cols CSR triple out of stretches of rows
// that share their column offsets — widths 0 to 6, in random order,
// repeats allowed, some reaching past column rows−1 as a slab's ghost
// columns do — with the odd random row between them, so its row runs
// take every shape SpMVRuns tells apart.
func testRunCSR(rng *machine.RNG, rows, cols int, spice bool) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, rows+1)
	for lo := 0; lo < rows; {
		hi := min(rows, lo+1+rng.Intn(12))
		// Offsets o with 0 ≤ lo+o and hi−1+o < cols fit every row.
		omin, omax := -lo, cols-hi
		var off []int
		if omin <= omax && rng.Intn(6) != 0 {
			for k := rng.Intn(7); k > 0; k-- {
				off = append(off, omin+rng.Intn(omax-omin+1))
			}
		}
		for i := lo; i < hi; i++ {
			for _, o := range off {
				colIdx = append(colIdx, i+o)
			}
			rowPtr[i+1] = len(colIdx)
		}
		lo = hi
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

			// The run kernel, on the same pattern (runs of one, mostly)
			// and on one made of runs.
			got = testVec(rng, rows, false)
			SpMVRuns(RowRuns(rowPtr, colIdx), rowPtr, colIdx, val, x, got)
			sameBits(t, "SpMVRuns", got, want)
			cols = rows + rng.Intn(20) // ghost columns past the rows
			rowPtr, colIdx, val = testRunCSR(rng, rows, cols, spice)
			x = testVec(rng, cols, spice)
			got, want = testVec(rng, rows, false), make([]float64, rows)
			naiveSpMV(rowPtr, colIdx, val, x, want)
			SpMVRuns(RowRuns(rowPtr, colIdx), rowPtr, colIdx, val, x, got)
			sameBits(t, "SpMVRuns on runs", got, want)

			// Signed zeros only: a row whose products are all −0 sums to
			// +0 only because the sum starts from +0.0.
			val, x = signedZeros(rng, len(val)), signedZeros(rng, cols)
			naiveSpMV(rowPtr, colIdx, val, x, want)
			SpMVRuns(RowRuns(rowPtr, colIdx), rowPtr, colIdx, val, x, got)
			sameBits(t, "SpMVRuns on signed zeros", got, want)
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
	rowPtr, colIdx, val = testRunCSR(rng, 40, 50, true)
	x = testVec(rng, 50, true)
	naiveSpMV(rowPtr[9:], colIdx, val, x, want)
	SpMVRuns(RowRuns(rowPtr[9:22], colIdx), rowPtr[9:22], colIdx, val, x, got)
	sameBits(t, "SpMVRuns on a window", got, want)
	SpMVRuns(nil, rowPtr[:1], colIdx, val, x, nil)
}

// checkRuns requires runs to be the row runs of (rowPtr, colIdx): they
// partition the rows in order, every row stores its run's offsets, and
// no two neighbouring runs could have been one.
func checkRuns(t *testing.T, runs []RowRun, rowPtr, colIdx []int) {
	t.Helper()
	at := 0
	for k, r := range runs {
		if r.Lo != at || r.Hi <= r.Lo {
			t.Fatalf("run %d is [%d,%d) after row %d", k, r.Lo, r.Hi, at)
		}
		for i := r.Lo; i < r.Hi; i++ {
			cols := colIdx[rowPtr[i]:rowPtr[i+1]]
			if len(cols) != len(r.Off) {
				t.Fatalf("row %d stores %d entries, its run's offsets are %v", i, len(cols), r.Off)
			}
			for q, j := range cols {
				if j-i != r.Off[q] {
					t.Fatalf("row %d stores columns %v, its run's offsets are %v", i, cols, r.Off)
				}
			}
		}
		if k > 0 && slices.Equal(runs[k-1].Off, r.Off) {
			t.Fatalf("runs %d and %d share offsets %v", k-1, k, r.Off)
		}
		at = r.Hi
	}
	if at != len(rowPtr)-1 {
		t.Fatalf("runs cover %d of %d rows", at, len(rowPtr)-1)
	}
}

// FuzzSpMVRuns draws CSR patterns from the input — per row one byte
// either repeats the previous row's columns shifted by one (so runs
// form, some of them stepping over from the rows' own columns into the
// ghost columns past them) or starts a row of up to six columns read
// from the following bytes, unsorted and repeats allowed, or none —
// and requires RowRuns to be the pattern's row runs and SpMVRuns to be
// SpMVRows, bit for bit, on values with the awkward ones mixed in.
func FuzzSpMVRuns(f *testing.F) {
	stencil := []byte{3 << 2, 0, 1, 4}
	for i := 0; i < 3; i++ {
		stencil = append(stencil, 1)
	}
	stencil = append(stencil, 5<<2, 0, 3, 4, 5, 8, 1, 1, 1, 4<<2, 3, 6, 7, 10, 2, 2, 0, 0, 1)
	f.Add(uint64(1), uint8(16), uint8(4), stencil)
	f.Add(uint64(2), uint8(9), uint8(0), []byte{6 << 2, 3, 3, 0, 8, 1, 2, 1, 0, 1 << 2, 8, 1, 1})
	f.Add(uint64(3), uint8(0), uint8(3), []byte{})
	f.Add(uint64(4), uint8(1), uint8(1), []byte{2 << 2, 1, 0})
	f.Fuzz(func(t *testing.T, seed uint64, rows, ghosts uint8, pattern []byte) {
		n := int(rows) % 100
		cols := n + int(ghosts)%16
		next := func() int {
			if len(pattern) == 0 {
				return 0
			}
			b := pattern[0]
			pattern = pattern[1:]
			return int(b)
		}
		rowPtr, colIdx := make([]int, n+1), []int(nil)
		for i := 0; i < n; i++ {
			op, prev := next(), colIdx[rowPtr[max(i-1, 0)]:rowPtr[i]]
			if op&3 != 0 && i > 0 && !slices.Contains(prev, cols-1) {
				for _, j := range prev {
					colIdx = append(colIdx, j+1)
				}
			} else if cols > 0 {
				for k := (op >> 2) % 7; k > 0; k-- {
					colIdx = append(colIdx, next()%cols)
				}
			}
			rowPtr[i+1] = len(colIdx)
		}
		runs := RowRuns(rowPtr, colIdx)
		checkRuns(t, runs, rowPtr, colIdx)

		rng := machine.NewRNG(seed)
		val, x := testVec(rng, len(colIdx), true), testVec(rng, cols, true)
		got, want := testVec(rng, n, false), make([]float64, n)
		SpMVRows(rowPtr, colIdx, val, x, want)
		SpMVRuns(runs, rowPtr, colIdx, val, x, got)
		sameBits(t, "SpMVRuns", got, want)
	})
}

func TestKernelsDoNotAllocate(t *testing.T) {
	rng := machine.NewRNG(4)
	const n = 67
	x, y, u := testVec(rng, n, false), testVec(rng, n, false), testVec(rng, n, false)
	rowPtr, colIdx, val := testRunCSR(rng, n, n, false)
	runs := RowRuns(rowPtr, colIdx)
	var sink float64
	if a := testing.AllocsPerRun(20, func() {
		Axpy(0.5, x, y)
		sink += AxpyDot(-0.5, x, y, u) + AxpyDot(0.25, x, y, y)
		SpMVRows(rowPtr, colIdx, val, x, u)
		SpMVRuns(runs, rowPtr, colIdx, val, x, u)
	}); a != 0 {
		t.Errorf("kernels allocate %v times per call set", a)
	}
	_ = sink
}
