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

// TestILURunsMatchRowSweeps: the run sweeps are the row sweeps,
// observably — same z, same virtual clock, same flop and noise ledgers,
// same spans at the same virtual times — on every campaign problem's
// blocks and on a pattern stored in descending column order, at P = 1,
// 2 and 3 (blocks of several grid rows, uneven on 3 ranks) and P = 64
// over 64 rows, where every block is one row.
func TestILURunsMatchRowSweeps(t *testing.T) {
	mats := func(g int) map[string]*la.CSR {
		return map[string]*la.CSR{
			"poisson":      problems.Poisson2D(g, g),
			"aniso":        problems.AnisoPoisson2D(g, g, 25, 1),
			"convdiff-rot": problems.ConvDiffRot2D(g, g, 40),
			"heat":         heatMatrix(g),
			"descending":   descending(problems.ConvDiffRot2D(g, g, 40)),
		}
	}
	for _, p := range []int{1, 2, 3, 64} {
		g := 13
		if p == 64 {
			g = 8
		}
		for name, a := range mats(g) {
			got := runILU(t, a, p, (*BlockJacobi).ApplyInto)
			want := runILU(t, a, p, (*BlockJacobi).applyRowSweeps)
			for r := range want {
				if want[r].Comm.NoiseTime == 0 || len(want[r].Events) == 0 {
					t.Fatalf("%s p=%d rank %d: the reference run is not the experiment it should be: %+v", name, p, r, want[r].Comm)
				}
				if !reflect.DeepEqual(got[r], want[r]) {
					g, w := got[r], want[r]
					t.Errorf("%s p=%d rank %d: run and row sweeps differ: z %v, clock %v vs %v, ledger %+v vs %+v, events %v",
						name, p, r, reflect.DeepEqual(g.Z, w.Z), g.Clock, w.Clock, g.Comm, w.Comm, reflect.DeepEqual(g.Events, w.Events))
				}
			}
		}
	}
}

// BenchmarkBlockJacobiApply: one op is one warmed-up ILU(0) application
// on rank 1's block of grid 96 over 2 ranks — solve_deep's block.
func BenchmarkBlockJacobiApply(b *testing.B) {
	const g, p, rank = 96, 2, 1
	a := problems.Poisson2D(g, g)
	err := comm.Run(cfg(p), func(c *comm.Comm) error {
		if c.Rank() != rank {
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
