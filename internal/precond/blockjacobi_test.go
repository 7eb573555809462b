package precond

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/problems"
)

// applyRowSweeps is (*BlockJacobi).ApplyInto as it stood before its
// sweeps walked row runs, verbatim: one row at a time, a column index
// loaded per entry. It is the reference the run sweeps must match bit
// for bit — values, clocks, ledgers and spans.
func (b *BlockJacobi) applyRowSweeps(r, z []float64) error {
	if !b.setup {
		return ErrNotSetup
	}
	start := b.c.SpanStart()
	la.CheckLen("r", r, b.n)
	la.CheckLen("z", z, b.n)
	y := b.y
	for i := 0; i < b.n; i++ {
		s := r[i]
		for q := b.rowPtr[i]; q < b.diagPtr[i]; q++ {
			s -= b.val[q] * y[b.colIdx[q]]
		}
		y[i] = s
	}
	for i := b.n - 1; i >= 0; i-- {
		s := y[i]
		for q := b.diagPtr[i] + 1; q < b.rowPtr[i+1]; q++ {
			s -= b.val[q] * z[b.colIdx[q]]
		}
		z[i] = s / b.val[b.diagPtr[i]]
	}
	b.c.Compute(b.Flops())
	b.c.SpanEnd(obs.PhasePrecondApply, start)
	return nil
}

// heatMatrix is the campaign's backward-Euler heat operator I + ν·L.
func heatMatrix(g int) *la.CSR {
	a := problems.Poisson2D(g, g)
	for i := 0; i < a.Rows; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			a.Val[q] *= 0.5
			if a.ColIdx[q] == i {
				a.Val[q]++
			}
		}
	}
	return a
}

// descending is a with every row's entries stored in descending column
// order: the entries before a diagonal are then its upper neighbours,
// and a faithful sweep reads what the previous application left in its
// scratch.
func descending(a *la.CSR) *la.CSR {
	d := &la.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: slices.Clone(a.ColIdx), Val: slices.Clone(a.Val)}
	for i := 0; i < d.Rows; i++ {
		slices.Reverse(d.ColIdx[d.RowPtr[i]:d.RowPtr[i+1]])
		slices.Reverse(d.Val[d.RowPtr[i]:d.RowPtr[i+1]])
	}
	return d
}

// iluTrace is everything one rank can tell about a sequence of
// block-Jacobi applications.
type iluTrace struct {
	Z      []uint64 // z after each application
	Clock  float64
	Comm   comm.Stats
	Events []obs.Event
}

// runILU factors a's diagonal blocks on p ranks of a jittery machine
// (every charge draws from the noise stream, so a merged, dropped or
// reordered charge moves the clock) and applies each block to a few
// right-hand sides carrying signed zeros, a subnormal, infinities and a
// NaN beside ordinary values, into the same z each time.
func runILU(t *testing.T, a *la.CSR, p int, apply func(b *BlockJacobi, r, z []float64) error) []iluTrace {
	t.Helper()
	out := make([]iluTrace, p)
	cfg := comm.Config{
		Ranks: p, Cost: machine.DefaultCostModel(), Seed: 7,
		Noise:    machine.UniformJitter{Frac: 0.25},
		Observer: func(ev obs.Event) { out[ev.Rank].Events = append(out[ev.Rank].Events, ev) },
	}
	err := comm.Run(cfg, func(c *comm.Comm) error {
		b := NewBlockJacobiILU(c, a)
		if err := b.Setup(); err != nil {
			return err
		}
		rng := machine.NewRNG(60 + uint64(c.Rank()))
		r, z := make([]float64, b.n), make([]float64, b.n)
		tr := &out[c.Rank()]
		for trial := 0; trial < 4; trial++ {
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			n := len(r)
			switch trial {
			case 1:
				r[0], r[n-1], r[n/2] = 0, math.Copysign(0, -1), 5e-324
			case 2:
				r[n/3], r[n-1] = math.Inf(1), math.Inf(-1)
			case 3:
				r[n/2] = math.NaN()
			}
			if err := apply(b, r, z); err != nil {
				return err
			}
			for _, x := range z {
				if math.IsNaN(x) {
					x = math.NaN() // which NaN is the hardware's business
				}
				tr.Z = append(tr.Z, math.Float64bits(x))
			}
		}
		tr.Clock, tr.Comm = c.Clock(), c.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// grid5 is a diagonally dominant 5-point matrix on an nx×ny grid with
// values drawn from seed: each off-diagonal entry is dropped with
// probability drop/256, each row is stored in descending column order
// with probability desc/256, and the first node of each grid row after
// the first couples, in place of its south neighbour, to the last node
// of the grid row before with probability wrap/256. Storage order alone never makes a band schedule unsafe: every
// 5-point neighbour pair is either in one lane or in adjacent lanes at
// one column, and the schedule keeps the order of both. A wrap entry
// is read from the row a band finishes last, so a band holding one
// must fall back to row order.
func grid5(nx, ny int, seed uint64, drop, desc, wrap int) *la.CSR {
	rng := machine.NewRNG(seed)
	n := nx * ny
	m := &la.CSR{Rows: n, Cols: n, RowPtr: make([]int, 1, n+1)}
	for r := 0; r < n; r++ {
		i, j := r%nx, r/nx
		start := len(m.ColIdx)
		wrapped := i == 0 && j > 0 && nx > 1 && rng.Intn(256) < wrap
		for _, e := range []struct {
			ok  bool
			col int
		}{{j > 0 && !wrapped, r - nx}, {i > 0 || wrapped, r - 1}, {true, r}, {i < nx-1, r + 1}, {j < ny-1, r + nx}} {
			if !e.ok || (e.col != r && rng.Intn(256) < drop) {
				continue
			}
			v := -0.5 - rng.Float64()
			if e.col == r {
				v = 6 + rng.Float64()
			}
			m.ColIdx = append(m.ColIdx, e.col)
			m.Val = append(m.Val, v)
		}
		if rng.Intn(256) < desc {
			slices.Reverse(m.ColIdx[start:])
			slices.Reverse(m.Val[start:])
		}
		m.RowPtr = append(m.RowPtr, len(m.ColIdx))
	}
	return m
}

// checkSchedules asserts, on every rank's block of a over p ranks,
// that both sweep schedules are safe; that each is the band schedule
// when that is safe and the row-order one when it is not; and that a
// wave step run before the steps it waits on, or whose lanes seed
// their registers from each other, is refused. It reports whether
// both sweeps of some block carry several grid rows at once and
// whether any band schedule was refused.
func checkSchedules(t *testing.T, a *la.CSR, p int) (waves, refused bool) {
	t.Helper()
	waved := map[bool]bool{} // by direction: forward or not
	err := comm.Run(cfg(p), func(c *comm.Comm) error {
		b := NewBlockJacobiILU(c, a)
		runs := la.RowRuns(b.rowPtr, b.colIdx)
		bands := gridBands(runs)
		pos := make([]int, b.n)
		for _, dir := range []struct {
			name    string
			forward bool
			got     []sweepStep
			build   func([]la.RowRun, []band) []sweepStep
		}{{"forward", true, b.fwd, b.forwardSchedule}, {"backward", false, b.bwd, b.backwardSchedule}} {
			banded, rows := dir.build(runs, bands), dir.build(runs, nil)
			want := rows
			if b.safe(banded, dir.forward, pos) {
				want = banded
			} else if len(bands) > 0 {
				refused = true
			}
			if !reflect.DeepEqual(dir.got, want) || !b.safe(dir.got, dir.forward, pos) {
				return fmt.Errorf("rank %d %s: schedule is not the safe one it should be", c.Rank(), dir.name)
			}
			if !b.safe(rows, dir.forward, pos) {
				return fmt.Errorf("rank %d %s: the row-order schedule is refused", c.Rank(), dir.name)
			}
			for k, s := range dir.got {
				if s.lanes == maxLanes && k > 0 {
					waved[dir.forward] = true
					early := append([]sweepStep{s}, slices.Delete(slices.Clone(dir.got), k, k+1)...)
					if b.safe(early, dir.forward, pos) {
						return fmt.Errorf("rank %d %s: a wave step moved first is accepted", c.Rank(), dir.name)
					}
				}
			}
			// Four consecutive rows of a run carrying a neighbour, as the
			// four lanes of one wave: solved in row order, but each lane
			// seeds its register before the lane ahead of it has solved
			// the row it reads.
			for k, s := range rows {
				if s.n < maxLanes || len(s.off) != 5 || !carries(s.off, s.d, dir.forward) {
					continue
				}
				first, w := s.lo[0], s
				w.lanes, w.n = maxLanes, 1
				if !dir.forward {
					first = s.lo[0] + s.n - maxLanes
				}
				for l := range w.lo {
					w.lo[l] = first + l
					if !dir.forward {
						w.lo[l] = first + maxLanes - 1 - l
					}
				}
				rest := s
				rest.n -= maxLanes
				if dir.forward {
					rest.lo[0] += maxLanes
				}
				bad := append(slices.Clone(rows[:k]), w)
				if rest.n > 0 {
					bad = append(bad, rest)
				}
				if b.safe(append(bad, rows[k+1:]...), dir.forward, pos) {
					return fmt.Errorf("rank %d %s: a wave seeding its registers from its own lanes is accepted", c.Rank(), dir.name)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return waved[true] && waved[false], refused
}

// TestILURunsMatchRowSweeps: the scheduled sweeps are the row sweeps,
// observably — same z, same virtual clock, same flop and noise ledgers,
// same spans at the same virtual times — on every campaign problem's
// blocks, on a pattern stored in descending column order, on 1-wide
// and 1-tall grids and on 5-point patterns with dropped entries, some
// rows stored descending and some grid rows wrapped, at P = 1 to 9 (blocks of several grid
// rows, uneven from 3 ranks on, thinner than a grid row at 9) and
// P = 64 over 64 rows, where every block is one row. Their schedules
// pass checkSchedules, the campaign problems' blocks at P ≤ 2 run wave
// steps, and some wrapped block falls back to row order.
func TestILURunsMatchRowSweeps(t *testing.T) {
	mats := func(g int) map[string]*la.CSR {
		return map[string]*la.CSR{
			"poisson":      problems.Poisson2D(g, g),
			"aniso":        problems.AnisoPoisson2D(g, g, 25, 1),
			"convdiff-rot": problems.ConvDiffRot2D(g, g, 40),
			"heat":         heatMatrix(g),
			"descending":   descending(problems.ConvDiffRot2D(g, g, 40)),
			"1-wide":       problems.Poisson2D(1, g*g),
			"1-tall":       problems.Poisson2D(g*g, 1),
			"dropped":      grid5(g, g, 3, 40, 0, 0),
			"mixed":        grid5(g+3, g-2, 4, 10, 12, 0),
			"wrapped":      grid5(g, g, 5, 0, 0, 80),
		}
	}
	campaign := map[string]bool{"poisson": true, "aniso": true, "convdiff-rot": true, "heat": true}
	fellBack := map[string]bool{}
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		g := 13
		if p == 64 {
			g = 8
		}
		for name, a := range mats(g) {
			waves, refused := checkSchedules(t, a, p)
			if p <= 2 && !waves && campaign[name] {
				t.Errorf("%s p=%d: no block sweeps several grid rows at once", name, p)
			}
			if refused {
				fellBack[name] = true
			}
			got := runILU(t, a, p, (*BlockJacobi).ApplyInto)
			want := runILU(t, a, p, (*BlockJacobi).applyRowSweeps)
			for r := range want {
				if want[r].Comm.NoiseTime == 0 || len(want[r].Events) == 0 {
					t.Fatalf("%s p=%d rank %d: the reference run is not the experiment it should be: %+v", name, p, r, want[r].Comm)
				}
				if !reflect.DeepEqual(got[r], want[r]) {
					g, w := got[r], want[r]
					t.Errorf("%s p=%d rank %d: scheduled and row sweeps differ: z %v, clock %v vs %v, ledger %+v vs %+v, events %v",
						name, p, r, reflect.DeepEqual(g.Z, w.Z), g.Clock, w.Clock, g.Comm, w.Comm, reflect.DeepEqual(g.Events, w.Events))
				}
			}
		}
	}
	if !fellBack["wrapped"] {
		t.Error("wrapped: no band schedule was refused, so the fallback went untested")
	}
}

// FuzzILUSchedule: on random nx×ny 5-point blocks — 1-wide and 1-tall
// included, entries dropped, rows stored descending and grid rows
// wrapped at random (see grid5) —
// split over 1 to 9 ranks, the scheduled sweeps equal the row-order
// sweeps bit for bit, and every block's schedules pass checkSchedules:
// a band schedule the pattern makes unsafe falls back to row order.
func FuzzILUSchedule(f *testing.F) {
	f.Add(uint8(13), uint8(13), uint8(1), uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(12), uint8(6), uint8(2), uint64(2), uint8(30), uint8(0), uint8(0))
	f.Add(uint8(9), uint8(11), uint8(3), uint64(3), uint8(0), uint8(40), uint8(0))
	f.Add(uint8(1), uint8(30), uint8(4), uint64(4), uint8(10), uint8(10), uint8(0))
	f.Add(uint8(30), uint8(1), uint8(9), uint64(5), uint8(0), uint8(200), uint8(0))
	f.Add(uint8(13), uint8(13), uint8(2), uint64(5), uint8(30), uint8(0), uint8(80))
	f.Fuzz(func(t *testing.T, nx, ny, p uint8, seed uint64, drop, desc, wrap uint8) {
		x, y, ranks := 1+int(nx)%16, 1+int(ny)%16, 1+int(p)%9
		if ranks > x*y {
			return
		}
		a := grid5(x, y, seed, int(drop), int(desc), int(wrap))
		checkSchedules(t, a, ranks)
		got := runILU(t, a, ranks, (*BlockJacobi).ApplyInto)
		want := runILU(t, a, ranks, (*BlockJacobi).applyRowSweeps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d over %d ranks (seed %d, drop %d, desc %d, wrap %d): scheduled and row sweeps differ", x, y, ranks, seed, drop, desc, wrap)
		}
	})
}

// BenchmarkBlockJacobiApply: one op is one warmed-up ILU(0) application
// on the last rank's block: grid 96 over 2 ranks is solve_deep's block
// (48 grid rows, swept four at a time), grid 12 over 2 and 4 ranks are
// the campaign's small blocks (6 grid rows, one band of four; 3 grid
// rows, no band).
func BenchmarkBlockJacobiApply(b *testing.B) {
	for _, bc := range []struct{ g, p int }{{96, 2}, {12, 2}, {12, 4}} {
		b.Run(fmt.Sprintf("g%d-p%d", bc.g, bc.p), func(b *testing.B) {
			benchBlockJacobiApply(b, bc.g, bc.p)
		})
	}
}

func benchBlockJacobiApply(b *testing.B, g, p int) {
	a := problems.Poisson2D(g, g)
	err := comm.Run(cfg(p), func(c *comm.Comm) error {
		if c.Rank() != p-1 {
			return nil
		}
		m := NewBlockJacobiILU(c, a)
		if err := m.Setup(); err != nil {
			return err
		}
		r, z := make([]float64, m.n), make([]float64, m.n)
		for i := range r {
			r[i] = 1 + float64(i%7)
		}
		if err := m.ApplyInto(r, z); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.ApplyInto(r, z); err != nil {
				return fmt.Errorf("application %d: %w", i, err)
			}
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
