package comm

import (
	"testing"

	"repro/internal/machine"
)

// TestSteadyStateAllocationFree pins the zero-allocation contract of the
// hot communication paths: after a warm-up round fills the world's
// buffer and slot pools, Send/RecvInto exchanges, blocking scalar
// all-reduces and the Start/WaitInto non-blocking pair must allocate
// nothing. The Krylov solvers' 0 allocs/iteration depends on exactly
// this property, and the benchdiff CI gate watches it end to end.
func TestSteadyStateAllocationFree(t *testing.T) {
	const p = 4
	w := NewWorld(Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 1})
	steps := 0 // what the released ranks run next; negative = exit
	for r := 0; r < p; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			buf := []float64{float64(c.Rank())}
			recv := make([]float64, 1)
			red := make([]float64, 2)
			var req Request
			next := (c.Rank() + 1) % p
			prev := (c.Rank() + p - 1) % p
			for {
				if err := c.Park(); err != nil {
					return err
				}
				if steps < 0 {
					return nil
				}
				for i := 0; i < steps; i++ {
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
				}
			}
		})
	}
	// The driver entry itself is part of the contract: Release + Wait is
	// how a parked world is stepped, so it must not allocate either.
	round := func(n int) {
		steps = n
		for r := 0; r < p; r++ {
			w.Release(r)
		}
		for r, err := range w.Wait() {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	w.Wait() // every rank builds its buffers and parks
	round(3) // warm-up: pools fill

	allocs := testing.AllocsPerRun(5, func() { round(10) })
	round(-1)
	// The whole world does 4 ranks × 10 steps × 4 operations per measured
	// run; demand strictly zero heap allocations across all of it.
	if allocs != 0 {
		t.Errorf("steady-state comm allocated %.1f times per round, want 0", allocs)
	}
}
