package dist

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/problems"
)

// randomSparse builds a deterministic sparse matrix with entries
// scattered over the whole plane, so halo partners are arbitrary ranks
// rather than just chain neighbours — the general exchange path.
func randomSparse(n int, seed uint64) *la.CSR {
	rng := machine.NewRNG(seed)
	b := triplets{}
	for k := 0; k < 6*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		b.add(i, j, 2*rng.Float64()-1)
	}
	for i := 0; i < n; i++ {
		b.add(i, i, 4)
	}
	return b.csr(n, n)
}

// TestCSRMatchesSerial: the distributed product agrees with the serial
// reference to 1e-12 across rank counts {1, 2, 3, 7, 8}, including
// non-divisible partitions, for both a banded PDE operator and a
// scattered random matrix.
func TestCSRMatchesSerial(t *testing.T) {
	cases := map[string]*la.CSR{
		"convdiff": problems.ConvDiff2D(13, 11, 8, 3), // 143 rows: indivisible by 2,3,7,8
		"random":   randomSparse(145, 99),
	}
	for name, a := range cases {
		xg := testVector(a.Rows)
		want := a.MatVec(xg, nil)
		scale := la.NrmInf(want)
		for _, p := range rankCounts {
			err := comm.Run(testCfg(p), func(c *comm.Comm) error {
				op := NewCSR(c, a)
				if op.GlobalLen() != a.Rows {
					t.Errorf("%s p=%d: GlobalLen %d", name, p, op.GlobalLen())
				}
				if op.NormInf() != a.NormInf() {
					t.Errorf("%s p=%d: NormInf %g want %g", name, p, op.NormInf(), a.NormInf())
				}
				lo, hi := Partition{N: a.Rows, P: p}.Range(c.Rank())
				if op.Lo() != lo || op.LocalLen() != hi-lo {
					t.Errorf("%s p=%d rank %d: layout (%d,%d) want (%d,%d)",
						name, p, c.Rank(), op.Lo(), op.LocalLen(), lo, hi-lo)
				}
				x := op.Scatter(xg)
				y := make([]float64, op.LocalLen())
				if err := op.Apply(x, y); err != nil {
					return err
				}
				full, err := op.Gather(y)
				if err != nil {
					return err
				}
				for i := range full {
					if math.Abs(full[i]-want[i]) > 1e-12*scale {
						t.Errorf("%s p=%d: product differs at %d: %g vs %g", name, p, i, full[i], want[i])
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
		}
	}
}

// TestCSRApplyLocalRecomputesWithoutCommunication: after an Apply, the
// operand buffer supports a bitwise-identical zero-communication
// recompute — the primitive the SKP correction path depends on.
func TestCSRApplyLocalRecomputesWithoutCommunication(t *testing.T) {
	a := problems.ConvDiff2D(13, 11, 8, 3)
	xg := testVector(a.Rows)
	err := comm.Run(testCfg(3), func(c *comm.Comm) error {
		op := NewCSR(c, a)
		y := make([]float64, op.LocalLen())
		if err := op.Apply(op.Scatter(xg), y); err != nil {
			return err
		}
		want := la.Copy(y)
		for i := range y {
			y[i] = math.NaN() // simulate a trashed result
		}
		before := c.Stats()
		op.ApplyLocal(y)
		after := c.Stats()
		if after.Sends != before.Sends || after.Recvs != before.Recvs || after.Collective != before.Collective {
			t.Errorf("rank %d: ApplyLocal communicated", c.Rank())
		}
		for i := range y {
			if y[i] != want[i] {
				t.Errorf("rank %d: recompute differs at %d", c.Rank(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCSRChecksumIdentity: the block-row checksum decomposition —
// sum(y_local) == dot(LocalColSums, XBuffer) for a clean product, on
// every rank, with no communication beyond the Apply itself.
func TestCSRChecksumIdentity(t *testing.T) {
	a := randomSparse(143, 7)
	xg := testVector(a.Rows)
	for _, p := range rankCounts {
		err := comm.Run(testCfg(p), func(c *comm.Comm) error {
			op := NewCSR(c, a)
			cs := op.LocalColSums()
			if len(cs) != len(op.XBuffer()) {
				t.Fatalf("p=%d: colsums length %d vs buffer %d", p, len(cs), len(op.XBuffer()))
			}
			y := make([]float64, op.LocalLen())
			if err := op.Apply(op.Scatter(xg), y); err != nil {
				return err
			}
			lhs, rhs := la.Sum(y), la.Dot(cs, op.XBuffer())
			scale := math.Max(math.Abs(lhs), math.Abs(rhs)) + la.NrmInf(op.XBuffer())*float64(len(cs))
			if math.Abs(lhs-rhs) > 1e-11*scale {
				t.Errorf("p=%d rank %d: checksum identity violated: %g vs %g", p, c.Rank(), lhs, rhs)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestCSRHaloIsNeighbourSparse: for a banded operator the exchange must
// ship messages only to ranks whose slabs actually reference owned
// entries — at most the two adjacent slabs, regardless of world size.
func TestCSRHaloIsNeighbourSparse(t *testing.T) {
	a := problems.ConvDiff2D(13, 11, 8, 3)
	xg := testVector(a.Rows)
	err := comm.Run(testCfg(7), func(c *comm.Comm) error {
		op := NewCSR(c, a)
		x := op.Scatter(xg)
		y := make([]float64, op.LocalLen())
		before := c.Stats().Sends
		if err := op.Apply(x, y); err != nil {
			return err
		}
		if sends := c.Stats().Sends - before; sends > 2 {
			t.Errorf("rank %d: banded apply sent %d messages", c.Rank(), sends)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCSRDeterministicAcrossInstances: two operators built from the
// same matrix use the identical column remap, so their products are
// bitwise equal — the property the SKP reference comparison relies on.
func TestCSRDeterministicAcrossInstances(t *testing.T) {
	a := randomSparse(97, 3)
	xg := testVector(a.Rows)
	err := comm.Run(testCfg(3), func(c *comm.Comm) error {
		op1, op2 := NewCSR(c, a), NewCSR(c, a)
		y1 := make([]float64, op1.LocalLen())
		y2 := make([]float64, op2.LocalLen())
		if err := op1.Apply(op1.Scatter(xg), y1); err != nil {
			return err
		}
		if err := op2.Apply(op2.Scatter(xg), y2); err != nil {
			return err
		}
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Errorf("rank %d: instances disagree bitwise at %d", c.Rank(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCSRStencilRowsFormRuns: on 5-point stencils a slab's pattern
// splits into about three row runs per grid row — the interior stretch
// and its two edge rows — ghost columns included, because the remap
// places each neighbour's ghosts in ascending order and so keeps their
// offsets constant along a grid row. The product over those runs is the
// serial one, bit for bit.
func TestCSRStencilRowsFormRuns(t *testing.T) {
	const g = 24
	for name, a := range map[string]*la.CSR{
		"poisson":  problems.Poisson2D(g, g),
		"aniso":    problems.AnisoPoisson2D(g, g, 25, 1),
		"convdiff": problems.ConvDiffRot2D(g, g, 40),
	} {
		xg := testVector(a.Rows)
		want := a.MatVec(xg, nil)
		for _, p := range []int{1, 2, 3, 4, 64} {
			l := NewLayout(a, p)
			for r := range l.slabs {
				s := &l.slabs[r]
				lo, hi := l.pt.Range(r)
				gridRows := (hi-1)/g - lo/g + 1
				if len(s.runs) > 3*gridRows {
					t.Errorf("%s p=%d rank %d: %d runs over %d grid rows", name, p, r, len(s.runs), gridRows)
				}
				at := 0
				for _, run := range s.runs {
					if run.Lo != at || run.Hi <= run.Lo {
						t.Fatalf("%s p=%d rank %d: run [%d,%d) after row %d", name, p, r, run.Lo, run.Hi, at)
					}
					at = run.Hi
				}
				if at != hi-lo {
					t.Errorf("%s p=%d rank %d: runs cover %d of %d rows", name, p, r, at, hi-lo)
				}
			}
			err := comm.Run(testCfg(p), func(c *comm.Comm) error {
				op := l.Bind(c)
				y := make([]float64, op.LocalLen())
				if err := op.Apply(op.Scatter(xg), y); err != nil {
					return err
				}
				for i := range y {
					if math.Float64bits(y[i]) != math.Float64bits(want[op.Lo()+i]) {
						t.Errorf("%s p=%d rank %d: row %d is %v, serial %v", name, p, c.Rank(), op.Lo()+i, y[i], want[op.Lo()+i])
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
		}
	}
}

// BenchmarkCSRApplyLocal: one op is one rank's local product over the
// operand buffer of its last Apply — the row-run kernel alone, no
// exchange — on three 5-point slabs: rank 1 of grid 96 over 2 ranks
// (solve_deep's), rank 1 of grid 12 over 4, and rank 0 of grid 24 over
// 64, an edge rank whose rows have three and four entries.
func BenchmarkCSRApplyLocal(b *testing.B) {
	for _, bc := range []struct {
		name          string
		grid, p, rank int
	}{
		{"g96-p2", 96, 2, 1},
		{"g12-p4", 12, 4, 1},
		{"g24-p64-edge", 24, 64, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := problems.Poisson2D(bc.grid, bc.grid)
			l, xg := NewLayout(a, bc.p), testVector(a.Rows)
			err := comm.Run(testCfg(bc.p), func(c *comm.Comm) error {
				op := l.Bind(c)
				y := make([]float64, op.LocalLen())
				if err := op.Apply(op.Scatter(xg), y); err != nil || c.Rank() != bc.rank {
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op.ApplyLocal(y)
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// triplets is the tests' builder for scattered patterns: add sums
// duplicate (i, j) entries in insertion order from +0, and csr stores
// each row's entries in ascending column order.
type triplets map[[2]int]float64

func (t triplets) add(i, j int, v float64) { t[[2]int{i, j}] += v }

func (t triplets) csr(rows, cols int) *la.CSR {
	keys := slices.SortedFunc(maps.Keys(t), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	m := &la.CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
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
