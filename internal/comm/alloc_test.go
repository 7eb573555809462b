package comm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// parkedWorld spawns cfg.Ranks ranks (on the default cost model, seed
// 1) that each build their state with setup and park. step(n) releases
// them to run their body n times and drives the world until every rank
// has parked again, so a measurement of step excludes world
// construction; stop makes the ranks return. Both fail t on any rank
// error.
func parkedWorld(tb testing.TB, cfg Config, setup func(c *Comm) func(n int) error) (step func(n int), stop func()) {
	cfg.Cost, cfg.Seed = machine.DefaultCostModel(), 1
	p := cfg.Ranks
	w := NewWorld(cfg)
	reps := 0 // what the released ranks run next; negative = exit
	for r := 0; r < p; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			body := setup(c)
			for {
				if err := c.Park(); err != nil {
					return err
				}
				if reps < 0 {
					return nil
				}
				if err := body(reps); err != nil {
					return err
				}
			}
		})
	}
	// The driver entry itself is part of what is measured: Release + Wait
	// is how a parked world is stepped, so it must not allocate either.
	step = func(n int) {
		reps = n
		for r := 0; r < p; r++ {
			w.Release(r)
		}
		for r, err := range w.Wait() {
			if err != nil {
				tb.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	w.Wait() // every rank builds its buffers and parks
	return step, func() { step(-1) }
}

// TestSteadyStateAllocationFree pins the zero-allocation contract of the
// hot communication paths: after a warm-up round has filled the world's
// message pool and collective slots, Send/RecvInto exchanges, blocking
// scalar and vector all-reduces, barriers and the Start/WaitInto
// non-blocking pair must allocate nothing. The Krylov solvers' 0
// allocs/iteration depends on exactly this property, and the benchdiff
// CI gate watches it end to end.
func TestSteadyStateAllocationFree(t *testing.T) {
	const p = 4
	step, stop := parkedWorld(t, Config{Ranks: p}, func(c *Comm) func(n int) error {
		buf := []float64{float64(c.Rank())}
		recv := make([]float64, 1)
		red := make([]float64, 2)
		vec := make([]float64, 3)
		var req Request
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := c.Send(next, 7, buf); err != nil {
					return err
				}
				if _, err := c.RecvInto(prev, 7, recv); err != nil {
					return err
				}
				if _, err := c.AllreduceScalar(1, OpSum); err != nil {
					return err
				}
				red[0], red[1] = 1, 2
				c.StartAllreduce(red, OpSum, &req)
				if _, err := req.WaitInto(red); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				vec[0], vec[1], vec[2] = 1, 2, 3
				if err := c.AllreduceInto(vec, OpMax, vec); err != nil {
					return err
				}
			}
			return nil
		}
	})
	step(3) // warm-up: pools fill

	allocs := testing.AllocsPerRun(5, func() { step(10) })
	stop()
	// The whole world does 4 ranks × 10 steps × 6 operations per measured
	// run; demand strictly zero heap allocations across all of it.
	if allocs != 0 {
		t.Errorf("steady-state comm allocated %.1f times per round, want 0", allocs)
	}
}

// TestPhaseTallyAllocationFree: a world that stages its phase spans in
// a tally, with no observer, keeps the steady-state collective and halo
// loop at 0 allocations — the solve service's plain-solve path — and
// the tally sees every span the loop closes.
func TestPhaseTallyAllocationFree(t *testing.T) {
	const p = 4
	reg := obs.NewRegistry()
	hists := make([]*obs.Histogram, len(obs.Phases()))
	for i, ph := range obs.Phases() {
		hists[i] = reg.Histogram("phase", "", []float64{1e-6, 1e-3}, obs.Label{Key: "phase", Value: ph})
	}
	phases := obs.NewPhaseTally(hists)
	iters := 0 // loop iterations of rank 0; every rank runs as many
	step, stop := parkedWorld(t, Config{Ranks: p, Phases: phases}, func(c *Comm) func(n int) error {
		out := make([]float64, 8)
		left, right := make([]float64, 8), make([]float64, 8)
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		return func(n int) error {
			for i := 0; i < n; i++ {
				halo, mark := c.SpanStart(), c.WaitMark()
				if err := c.Send(next, 1, out); err != nil {
					return err
				}
				if err := c.Send(prev, 2, out); err != nil {
					return err
				}
				if _, err := c.RecvInto(prev, 1, left); err != nil {
					return err
				}
				if _, err := c.RecvInto(next, 2, right); err != nil {
					return err
				}
				c.SpanEndWait(obs.PhaseHaloExchange, halo, mark)
				spmv := c.SpanStart()
				c.Compute(100)
				c.SpanEnd(obs.PhaseSpMV, spmv)
				if _, err := c.AllreduceScalar(1, OpSum); err != nil {
					return err
				}
				if c.Rank() == 0 {
					iters++
				}
			}
			return nil
		}
	})
	step(3) // warm-up: pools fill

	allocs := testing.AllocsPerRun(5, func() { step(10) })
	stop()
	if allocs != 0 {
		t.Errorf("steady-state comm with a phase tally allocated %.1f times per round, want 0", allocs)
	}
	phases.Flush()
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	series, err := obs.ParseText(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{obs.PhaseHaloExchange, obs.PhaseSpMV, obs.PhaseAllreduce} {
		if got, want := series[fmt.Sprintf("phase_count{phase=%q}", ph)], float64(p*iters); got != want {
			t.Errorf("%s: tally staged %g spans, the loop closed %g", ph, got, want)
		}
	}
}

// BenchmarkAllreduceScalar: one op is one blocking one-word all-reduce
// over every rank of the world — what modified Gram–Schmidt, dist.Dot
// and dist.Norm2 pay per reduction.
func BenchmarkAllreduceScalar(b *testing.B) {
	for _, p := range []int{4, 64} {
		b.Run(map[int]string{4: "p4", 64: "p64"}[p], func(b *testing.B) {
			step, stop := parkedWorld(b, Config{Ranks: p}, func(c *Comm) func(n int) error {
				return func(n int) error {
					for i := 0; i < n; i++ {
						if _, err := c.AllreduceScalar(1, OpSum); err != nil {
							return err
						}
					}
					return nil
				}
			})
			defer stop()
			step(16)
			b.ReportAllocs()
			b.ResetTimer()
			step(b.N)
		})
	}
}

// BenchmarkHaloExchange: one op is one exchange of a 24-word halo with
// both ring neighbours on every rank of a 64-rank world — the
// point-to-point half of a distributed SpMV on the solve_wide grid.
func BenchmarkHaloExchange(b *testing.B) {
	const p, halo = 64, 24
	step, stop := parkedWorld(b, Config{Ranks: p}, func(c *Comm) func(n int) error {
		out := make([]float64, halo)
		left, right := make([]float64, halo), make([]float64, halo)
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := c.Send(next, 1, out); err != nil {
					return err
				}
				if err := c.Send(prev, 2, out); err != nil {
					return err
				}
				if _, err := c.RecvInto(prev, 1, left); err != nil {
					return err
				}
				if _, err := c.RecvInto(next, 2, right); err != nil {
					return err
				}
			}
			return nil
		}
	})
	defer stop()
	step(16)
	b.ReportAllocs()
	b.ResetTimer()
	step(b.N)
}
