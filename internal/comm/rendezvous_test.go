package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// The tests below pin the collective rendezvous itself: every
// all-reduce entry point (blocking scalar, blocking into a buffer,
// non-blocking start/wait) meets the others in one slot and produces the
// same bits, clocks, counters and spans; and what a world keeps of its
// collectives' storage once they are done is bounded.

// rendezvousRun is what one run of mixedEntriesProgram observed.
type rendezvousRun struct {
	results [][]uint64 // results[r]: bit patterns rank r received, in order
	clocks  []float64
	stats   []Stats
	events  []obs.Event
}

// runAllreduceEntries runs a few rounds of one-word all-reduces with op
// on p ranks of a jittery machine, each contribution multiplied by sign
// (a minimum is −max(−x)). Rank r reaches each all-reduce through
// entry(r); the contributions are ill-conditioned so a change of fold
// order would show in the sums.
func runAllreduceEntries(t *testing.T, p int, op Op, sign float64, entry func(r int) int) rendezvousRun {
	t.Helper()
	const rounds = 6
	out := rendezvousRun{results: make([][]uint64, p), clocks: make([]float64, p), stats: make([]Stats, p)}
	cfg := testConfig(p)
	cfg.Noise = machine.UniformJitter{Frac: 0.5}
	cfg.Observer = func(ev obs.Event) { out.events = append(out.events, ev) }
	err := Run(cfg, func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			c.Compute(float64(1000 * (c.Rank()%5 + i)))
			x := sign * math.Pow(10, float64((c.Rank()*7+i)%17-8)) * float64(1-2*((c.Rank()+i)%2))
			var got float64
			switch entry(c.Rank()) {
			case 0:
				v, err := c.AllreduceScalar(x, op)
				if err != nil {
					return err
				}
				got = v
			case 1:
				buf := []float64{x}
				if err := c.AllreduceInto(buf, op, buf); err != nil {
					return err
				}
				got = buf[0]
			case 2:
				var req Request
				c.StartAllreduce([]float64{x}, op, &req)
				res := make([]float64, 1)
				if _, err := req.WaitInto(res); err != nil {
					return err
				}
				got = res[0]
			}
			out.results[c.Rank()] = append(out.results[c.Rank()], math.Float64bits(got))
		}
		out.clocks[c.Rank()] = c.Clock()
		out.stats[c.Rank()] = c.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMixedEntriesMeetInOneSlot: rank r reaches every all-reduce through
// entry r mod 3. The run must be bitwise the all-scalar run — results,
// clocks, counters and the span stream.
func TestMixedEntriesMeetInOneSlot(t *testing.T) {
	for _, p := range []int{1, 3, 64} {
		for _, red := range []struct {
			name string
			op   Op
			sign float64
		}{{"sum", OpSum, 1}, {"max", OpMax, 1}, {"min", OpMax, -1}} {
			t.Run(fmt.Sprintf("p%d/%s", p, red.name), func(t *testing.T) {
				want := runAllreduceEntries(t, p, red.op, red.sign, func(int) int { return 0 })
				got := runAllreduceEntries(t, p, red.op, red.sign, func(r int) int { return r % 3 })
				for r := 0; r < p; r++ {
					if fmt.Sprint(got.results[r]) != fmt.Sprint(want.results[r]) {
						t.Errorf("rank %d results %x, all-scalar run %x", r, got.results[r], want.results[r])
					}
					if math.Float64bits(got.clocks[r]) != math.Float64bits(want.clocks[r]) {
						t.Errorf("rank %d clock %v, all-scalar run %v", r, got.clocks[r], want.clocks[r])
					}
					if got.stats[r] != want.stats[r] {
						t.Errorf("rank %d stats %+v, all-scalar run %+v", r, got.stats[r], want.stats[r])
					}
				}
				if len(got.events) != len(want.events) {
					t.Fatalf("%d events, all-scalar run %d", len(got.events), len(want.events))
				}
				for i := range got.events {
					if got.events[i] != want.events[i] {
						t.Fatalf("event %d is %+v, all-scalar run %+v", i, got.events[i], want.events[i])
					}
				}
				if p > 1 && len(want.events) == 0 {
					t.Error("no allreduce spans were emitted")
				}
			})
		}
	}
}

// TestRetainedCollectiveStorageBounded: one 64-rank Allgather of 1 Mi
// words, then 1,000 scalar all-reduces. What the world keeps afterwards
// for its collectives stays within the buffer pool's cap and is no more
// than that one large collective needed.
func TestRetainedCollectiveStorageBounded(t *testing.T) {
	const p, total, small = 64, 1 << 20, 1000
	w := NewWorld(testConfig(p))
	for r := 0; r < p; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			all, err := c.Allgather(make([]float64, total/p))
			if err != nil {
				return err
			}
			if len(all) != total {
				t.Errorf("rank %d: allgather of %d words returned %d", c.Rank(), total, len(all))
			}
			for i := 0; i < small; i++ {
				if _, err := c.AllreduceScalar(1, OpSum); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for r, err := range w.Wait() {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	bufs, words := collectiveHold(w)
	t.Logf("held after the allgather and %d scalar all-reduces: %d buffers, %d words", small, bufs, words)
	if bufs > poolMaxBufs {
		t.Errorf("the world holds %d buffers, more than the pool's cap of %d", bufs, poolMaxBufs)
	}
	if limit := 2 * total; words > limit {
		t.Errorf("the world holds %d words, more than the %d one allgather of %d words needs", words, limit, total)
	}
}

// collectiveHold counts the buffers, and their capacity in words, that
// world w keeps for communication between operations: its buffer pool
// and every slot's storage, open or recycled.
func collectiveHold(w *World) (bufs, words int) {
	add := func(b []float64) {
		if cap(b) > 0 {
			bufs++
			words += cap(b)
		}
	}
	for _, b := range w.pool.bufs {
		add(b)
	}
	for _, s := range append(w.colls[:len(w.colls):len(w.colls)], w.slotPool...) {
		if s != nil {
			add(s.vals)
		}
	}
	return bufs, words
}
