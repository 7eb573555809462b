package comm

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// TestAllreduceEqualsSerialReductionProperty: for random per-rank
// payloads, the distributed sum, max and min (as −max(−x)) must equal
// the serial fold — bitwise for max/min, and bitwise for sum too
// because contributions are folded in rank order.
func TestAllreduceEqualsSerialReductionProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		p := int(pRaw%7) + 2 // 2..8 ranks
		vals := make([]float64, p)
		for i := range vals {
			if i < len(raw) && !math.IsNaN(raw[i]) && !math.IsInf(raw[i], 0) {
				vals[i] = math.Mod(raw[i], 1e9)
			} else {
				vals[i] = float64(i)
			}
		}
		wantSum := 0.0
		wantMax := math.Inf(-1)
		wantMin := math.Inf(1)
		for _, v := range vals {
			wantSum += v
			wantMax = math.Max(wantMax, v)
			wantMin = math.Min(wantMin, v)
		}
		ok := true
		err := Run(Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 1}, func(c *Comm) error {
			s, err := c.AllreduceScalar(vals[c.Rank()], OpSum)
			if err != nil {
				return err
			}
			mx, err := c.AllreduceScalar(vals[c.Rank()], OpMax)
			if err != nil {
				return err
			}
			mn, err := c.AllreduceScalar(-vals[c.Rank()], OpMax)
			if err != nil {
				return err
			}
			if s != wantSum || mx != wantMax || -mn != wantMin {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestAllreduceBitwiseDeterministicAcrossRuns: the rank-ordered fold must
// give the identical floating-point result across repeated runs.
func TestAllreduceBitwiseDeterministicAcrossRuns(t *testing.T) {
	const p = 13
	run := func() float64 {
		var out float64
		err := Run(testConfig(p), func(c *Comm) error {
			// Ill-conditioned contributions that make fold order matter.
			x := math.Pow(10, float64(c.Rank()-6))
			s, err := c.AllreduceScalar(x, OpSum)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = s
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %x differs from %x", i, got, first)
		}
	}
}

// TestCollectiveSynchronisesClocks: after a blocking collective, all
// ranks report the same clock (the completion time), and it is at
// least the max of their pre-collective clocks.
func TestCollectiveSynchronisesClocks(t *testing.T) {
	const p = 6
	err := Run(testConfig(p), func(c *Comm) error {
		c.Compute(float64(c.Rank()) * 1e6) // staggered work
		pre := c.Clock()
		if _, err := c.AllreduceScalar(0, OpSum); err != nil {
			return err
		}
		post := c.Clock()
		if post < pre {
			t.Errorf("rank %d: clock went backward", c.Rank())
		}
		// All ranks must now agree exactly.
		mx, err := c.AllreduceScalar(post, OpMax)
		if err != nil {
			return err
		}
		mn, err := c.AllreduceScalar(-post, OpMax)
		if err != nil {
			return err
		}
		if mn = -mn; mx != mn {
			t.Errorf("rank %d: clocks disagree after the collective: %g vs %g", c.Rank(), mn, mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMismatchedCollectivePanics: two ranks entering different
// collectives, or one all-reduce with different ops, at the same
// sequence number must panic loudly, not exchange garbage. The second
// arrival is the one that panics, the panic surfaces from Wait, and
// its message names both sides.
func TestMismatchedCollectivePanics(t *testing.T) {
	allreduce := func(op Op) func(c *Comm) error {
		return func(c *Comm) error {
			_, err := c.AllreduceScalar(1, op)
			return err
		}
	}
	allgather := func(c *Comm) error {
		_, err := c.Allgather([]float64{1})
		return err
	}
	for _, tc := range []struct {
		name       string
		rank0      func(c *Comm) error
		rank1      func(c *Comm) error
		wantInText []string
	}{
		{"kind", allreduce(OpSum), allgather, []string{"collective mismatch", "called allgather", "slot has allreduce"}},
		{"op", allreduce(OpSum), allreduce(OpMax), []string{"collective mismatch", "called allreduce op=1", "slot has allreduce op=0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(testConfig(2))
			w.Spawn(0, 0, tc.rank0)
			w.Spawn(1, 0, tc.rank1)
			defer func() {
				p := recover()
				for _, want := range tc.wantInText {
					if p == nil || !strings.Contains(fmt.Sprint(p), want) {
						t.Errorf("mismatched collectives should panic out of Wait naming %q, recovered %v", want, p)
					}
				}
			}()
			w.Wait()
		})
	}
}

// TestSendRecvLargePayload exercises payload copying.
func TestSendRecvLargePayload(t *testing.T) {
	payload := make([]float64, 10000)
	for i := range payload {
		payload[i] = float64(i) * 1.5
	}
	err := Run(testConfig(2), func(c *Comm) error {
		if c.Rank() == 0 {
			buf := append([]float64(nil), payload...)
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			// Mutating the buffer after Send must not affect delivery.
			for i := range buf {
				buf[i] = -1
			}
			return nil
		}
		got, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		for i := range got {
			if got[i] != payload[i] {
				t.Errorf("payload corrupted at %d", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
