package comm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/machine"
)

func testConfig(ranks int) Config {
	return Config{Ranks: ranks, Cost: machine.DefaultCostModel(), Seed: 42}
}

func TestAllreduceSum(t *testing.T) {
	const P = 8
	err := Run(testConfig(P), func(c *Comm) error {
		res, err := c.Allreduce([]float64{float64(c.Rank()), 1}, OpSum)
		if err != nil {
			return err
		}
		wantSum := float64(P*(P-1)) / 2
		if res[0] != wantSum || res[1] != P {
			t.Errorf("rank %d: got %v, want [%v %v]", c.Rank(), res, wantSum, float64(P))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const P = 5
	err := Run(testConfig(P), func(c *Comm) error {
		mx, err := c.AllreduceScalar(float64(c.Rank()), OpMax)
		if err != nil {
			return err
		}
		mn, err := c.AllreduceScalar(float64(c.Rank()), OpMin)
		if err != nil {
			return err
		}
		if mx != P-1 || mn != 0 {
			t.Errorf("rank %d: max=%v min=%v", c.Rank(), mx, mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvRing(t *testing.T) {
	const P = 6
	err := Run(testConfig(P), func(c *Comm) error {
		next := (c.Rank() + 1) % P
		prev := (c.Rank() + P - 1) % P
		got, err := c.Sendrecv(next, 7, []float64{float64(c.Rank())}, prev, 7)
		if err != nil {
			return err
		}
		if got[0] != float64(prev) {
			t.Errorf("rank %d: got %v from prev, want %d", c.Rank(), got[0], prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const P = 4
	err := Run(testConfig(P), func(c *Comm) error {
		all, err := c.Allgather([]float64{float64(c.Rank() * 10)})
		if err != nil {
			return err
		}
		for r := 0; r < P; r++ {
			if all[r] != float64(r*10) {
				t.Errorf("rank %d: allgather got %v", c.Rank(), all)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVirtualTimeOverlap verifies the core RBSP property: computation
// between posting an IAllreduce and waiting on it hides collective
// latency, whereas the same computation after a blocking Allreduce adds
// to it.
func TestVirtualTimeOverlap(t *testing.T) {
	const P = 16
	const flops = 1e6
	var blockingTime, overlapTime float64

	err := Run(testConfig(P), func(c *Comm) error {
		_, err := c.Allreduce([]float64{1}, OpSum)
		if err != nil {
			return err
		}
		c.Compute(flops)
		tEnd, err := c.AllreduceScalar(c.Clock(), OpMax)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			blockingTime = tEnd
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = Run(testConfig(P), func(c *Comm) error {
		req := c.IAllreduce([]float64{1}, OpSum)
		c.Compute(flops)
		if _, err := req.Wait(); err != nil {
			return err
		}
		tEnd, err := c.AllreduceScalar(c.Clock(), OpMax)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			overlapTime = tEnd
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if overlapTime >= blockingTime {
		t.Errorf("overlap (%.3g s) should beat blocking (%.3g s)", overlapTime, blockingTime)
	}
}

// TestDeterminism verifies bitwise-identical results across runs with the
// same seed, including under noise.
func TestDeterminism(t *testing.T) {
	run := func() (sum, clock float64) {
		cfg := testConfig(8)
		cfg.Noise = machine.UniformJitter{Frac: 1}
		err := Run(cfg, func(c *Comm) error {
			acc := 0.0
			for i := 0; i < 20; i++ {
				c.Compute(1000)
				x := float64(c.Rank()*20+i) / 7
				r, err := c.AllreduceScalar(x, OpSum)
				if err != nil {
					return err
				}
				acc += r
			}
			tEnd, err := c.AllreduceScalar(c.Clock(), OpMax)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				sum, clock = acc, tEnd
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, clock
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Errorf("non-deterministic: (%v,%v) vs (%v,%v)", s1, c1, s2, c2)
	}
	if math.IsNaN(s1) || c1 <= 0 {
		t.Errorf("suspicious results: sum=%v clock=%v", s1, c1)
	}
}

// TestFailureSemantics verifies the ULFM-style contract: a dying rank
// gets ErrKilled, survivors get ErrRankFailed from collectives, and after
// Repair + JoinEpoch + respawn, communication works again. The test
// body is the supervisor: Wait hands it the world once the victim has
// died and every survivor has parked.
func TestFailureSemantics(t *testing.T) {
	const P = 4
	const victim = 2
	w := NewWorld(testConfig(P))

	var newEpoch, parked, recovered int
	postRepair := func(c *Comm) error {
		c.JoinEpoch(newEpoch)
		s, err := c.AllreduceScalar(1, OpSum)
		if err != nil {
			return err
		}
		if s != P {
			t.Errorf("rank %d: post-repair sum %v, want %d", c.Rank(), s, P)
		}
		recovered++
		return nil
	}
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			// Step 1: a healthy collective.
			if _, err := c.AllreduceScalar(1, OpSum); err != nil {
				return err
			}
			// Step 2: the victim dies; others hit the failure.
			if c.Rank() == victim {
				return c.Die()
			}
			_, err := c.AllreduceScalar(2, OpSum)
			if !errors.Is(err, ErrRankFailed) {
				t.Errorf("rank %d: want ErrRankFailed, got %v", c.Rank(), err)
				return err
			}
			parked++
			if err := c.Park(); err != nil {
				return err
			}
			// Step 3: post-repair collective including the respawned rank.
			return postRepair(c)
		})
	}
	errs := w.Wait()
	if !errors.Is(errs[victim], ErrKilled) {
		t.Errorf("victim exit err = %v, want ErrKilled", errs[victim])
	}
	if parked != P-1 {
		t.Fatalf("%d survivors parked, want %d", parked, P-1)
	}
	for r, f := range w.failed {
		if f != (r == victim) {
			t.Fatalf("rank %d failed = %v, want only rank %d failed", r, f, victim)
		}
	}
	newEpoch = w.Repair()
	w.Spawn(victim, 0, postRepair)
	for r := 0; r < P; r++ {
		if r != victim {
			w.Release(r)
		}
	}
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d after repair: %v", r, err)
		}
	}
	if recovered != P {
		t.Errorf("only %d ranks recovered, want %d", recovered, P)
	}
}

// TestRecvFromDeadRank verifies a blocked Recv wakes with an error when
// the expected sender dies.
func TestRecvFromDeadRank(t *testing.T) {
	w := NewWorld(testConfig(2))
	w.Spawn(0, 0, func(c *Comm) error {
		_, err := c.Recv(1, 0)
		if !errors.Is(err, ErrRankFailed) {
			t.Errorf("want ErrRankFailed, got %v", err)
		}
		return nil
	})
	w.Spawn(1, 0, func(c *Comm) error {
		return c.Die()
	})
	w.Wait()
}

func TestReduceDeliversToRootOnly(t *testing.T) {
	const P = 5
	err := Run(testConfig(P), func(c *Comm) error {
		res, err := c.Reduce(2, []float64{float64(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			if res == nil || res[0] != 10 {
				t.Errorf("root got %v, want [10]", res)
			}
		} else if res != nil {
			t.Errorf("rank %d: non-root got %v", c.Rank(), res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleRankWorld: all collectives must work (and be free) at P=1.
func TestSingleRankWorld(t *testing.T) {
	err := Run(testConfig(1), func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		s, err := c.AllreduceScalar(3, OpSum)
		if err != nil || s != 3 {
			t.Errorf("allreduce: %v %v", s, err)
		}
		g, err := c.Allgather([]float64{1, 2})
		if err != nil || len(g) != 2 {
			t.Errorf("allgather: %v %v", g, err)
		}
		if c.Clock() != 0 {
			t.Errorf("single-rank collectives should be free, clock=%g", c.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveTreeCostGrowsWithP(t *testing.T) {
	timeFor := func(p int) float64 {
		var tEnd float64
		err := Run(testConfig(p), func(c *Comm) error {
			for i := 0; i < 10; i++ {
				if _, err := c.AllreduceScalar(1, OpSum); err != nil {
					return err
				}
			}
			mx, err := c.AllreduceScalar(c.Clock(), OpMax)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				tEnd = mx
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tEnd
	}
	t4, t64 := timeFor(4), timeFor(64)
	if t64 <= t4 {
		t.Errorf("collective cost should grow with P: t(4)=%g t(64)=%g", t4, t64)
	}
}
