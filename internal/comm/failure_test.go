package comm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestFailureDuringEachCollective kills a rank while the others are
// blocked inside each collective type; every survivor must wake with
// ErrRankFailed, never hang, never get garbage.
func TestFailureDuringEachCollective(t *testing.T) {
	type op func(c *Comm) error
	cases := map[string]op{
		"barrier": func(c *Comm) error { return c.Barrier() },
		"allreduce": func(c *Comm) error {
			_, err := c.AllreduceScalar(1, OpSum)
			return err
		},
		"broadcast": func(c *Comm) error {
			_, err := c.Broadcast(0, []float64{1})
			return err
		},
		"allgather": func(c *Comm) error {
			_, err := c.Allgather([]float64{1})
			return err
		},
		"iallreduce-wait": func(c *Comm) error {
			req := c.IAllreduce([]float64{1}, OpSum)
			_, err := req.Wait()
			return err
		},
		"recv": func(c *Comm) error {
			// Wait for a message the dead rank will never send.
			_, err := c.Recv(3, 99)
			return err
		},
	}
	const P = 4
	const victim = 3
	for name, doOp := range cases {
		w := NewWorld(testConfig(P))
		errs := make(chan error, P-1)
		for r := 0; r < P; r++ {
			r := r
			w.Spawn(r, 0, func(c *Comm) error {
				if c.Rank() == victim {
					return c.Die()
				}
				errs <- doOp(c)
				return nil
			})
		}
		w.Wait()
		for i := 0; i < P-1; i++ {
			if err := <-errs; !errors.Is(err, ErrRankFailed) {
				t.Errorf("%s: survivor got %v, want ErrRankFailed", name, err)
			}
		}
	}
}

// TestOpsAfterOwnDeathReturnKilled: every operation on a dead rank's comm
// reports ErrKilled.
func TestOpsAfterOwnDeathReturnKilled(t *testing.T) {
	w := NewWorld(testConfig(2))
	done := make(chan struct{})
	w.Spawn(0, 0, func(c *Comm) error {
		_ = c.Die()
		if err := c.Barrier(); !errors.Is(err, ErrKilled) {
			t.Errorf("Barrier after death: %v", err)
		}
		if err := c.Send(1, 0, []float64{1}); !errors.Is(err, ErrKilled) {
			t.Errorf("Send after death: %v", err)
		}
		if _, err := c.Recv(1, 0); !errors.Is(err, ErrKilled) {
			t.Errorf("Recv after death: %v", err)
		}
		if _, err := c.AllreduceScalar(1, OpSum); !errors.Is(err, ErrKilled) {
			t.Errorf("Allreduce after death: %v", err)
		}
		close(done)
		return ErrKilled
	})
	w.Spawn(1, 0, func(c *Comm) error {
		<-done
		return nil
	})
	w.Wait()
}

// TestSendToFailedRankFailsFast: sending to a known-dead rank errors
// immediately instead of queueing to nowhere.
func TestSendToFailedRankFailsFast(t *testing.T) {
	w := NewWorld(testConfig(3))
	died := make(chan struct{})
	w.Spawn(2, 0, func(c *Comm) error {
		err := c.Die()
		close(died)
		return err
	})
	w.Spawn(0, 0, func(c *Comm) error {
		<-died
		if err := c.Send(2, 0, []float64{1}); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Send to dead rank: %v", err)
		}
		return nil
	})
	w.Spawn(1, 0, func(c *Comm) error {
		<-died
		return nil
	})
	w.Wait()
}

// TestRequestTest covers the non-blocking Test path.
func TestRequestTest(t *testing.T) {
	err := Run(testConfig(3), func(c *Comm) error {
		req := c.IAllreduce([]float64{float64(c.Rank())}, OpSum)
		// Spin (bounded) until posted everywhere; Test must not advance
		// the clock.
		before := c.Clock()
		for i := 0; i < 1e7 && !req.Test(); i++ {
		}
		if c.Clock() != before {
			t.Errorf("Test advanced the clock")
		}
		res, err := req.Wait()
		if err != nil {
			return err
		}
		if res[0] != 3 {
			t.Errorf("sum %v", res[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIBarrier covers the non-blocking barrier.
func TestIBarrier(t *testing.T) {
	err := Run(testConfig(4), func(c *Comm) error {
		req := c.IBarrier()
		c.Compute(1000)
		_, err := req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillDuringNonBlockingAllreduce races an external Kill against
// ranks that have posted a StartAllreduce and sit in WaitInto — the
// non-blocking path the earlier tests never exercised. The timing of
// the kill relative to each survivor's wait is genuinely racy, so the
// assertion is the failure-semantics invariant rather than one fixed
// outcome: a WaitInto either returns the complete, correct reduction
// or ErrRankFailed (ErrKilled on the victim itself) — never garbage,
// never a hang. Many trials with the victim at different post stages
// cover the completed-before-kill, killed-while-parked and
// killed-before-post interleavings; `go test -race` additionally vets
// the locking.
func TestKillDuringNonBlockingAllreduce(t *testing.T) {
	const P = 4
	for trial := 0; trial < 40; trial++ {
		w := NewWorld(testConfig(P))
		victim := trial % P
		victimPosts := trial%3 != 0 // sometimes the victim never posts
		type res struct {
			rank int
			sum  float64
			n    int
			err  error
		}
		posted := make(chan struct{}, P)
		results := make(chan res, P)
		for r := 0; r < P; r++ {
			w.Spawn(r, 0, func(c *Comm) error {
				if c.Rank() == victim && !victimPosts {
					posted <- struct{}{}
					return nil // exits without posting; Kill hits it outside any op
				}
				buf := []float64{1}
				var req Request
				c.StartAllreduce(buf, OpSum, &req)
				posted <- struct{}{}
				n, err := req.WaitInto(buf)
				results <- res{c.Rank(), buf[0], n, err}
				return err
			})
		}
		go func() {
			<-posted // overlap the kill with the in-flight collective
			w.Kill(victim)
		}()
		w.Wait()
		close(results)
		for got := range results {
			switch {
			case got.err == nil:
				if got.n != 1 || got.sum != P {
					t.Fatalf("trial %d rank %d: completed reduction returned %v (n=%d), want %v",
						trial, got.rank, got.sum, got.n, float64(P))
				}
			case got.rank == victim:
				if !errors.Is(got.err, ErrKilled) {
					t.Fatalf("trial %d: victim got %v, want ErrKilled", trial, got.err)
				}
			default:
				if !errors.Is(got.err, ErrRankFailed) {
					t.Fatalf("trial %d rank %d: survivor got %v, want ErrRankFailed", trial, got.rank, got.err)
				}
			}
		}
	}
}

// TestKillBetweenPostAndWait pins the deterministic corner of the
// non-blocking failure semantics: an Allreduce completes when the last
// rank posts, so a victim that posts and *then* dies must not abort
// the survivors — their WaitInto holds a completed slot and returns
// the full reduction, not ErrRankFailed.
func TestKillBetweenPostAndWait(t *testing.T) {
	const P = 3
	w := NewWorld(testConfig(P))
	var allPosted sync.WaitGroup
	allPosted.Add(P)
	died := make(chan struct{})
	errs := make(chan error, P-1)
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			buf := []float64{1}
			var req Request
			c.StartAllreduce(buf, OpSum, &req)
			allPosted.Done()
			if c.Rank() == 0 {
				allPosted.Wait() // the collective is complete before the death
				err := c.Die()
				close(died)
				return err
			}
			<-died // guarantee the death precedes every survivor's wait
			n, err := req.WaitInto(buf)
			if err == nil && (n != 1 || buf[0] != P) {
				t.Errorf("rank %d: completed reduction returned %v (n=%d)", c.Rank(), buf[0], n)
			}
			errs <- err
			return nil
		})
	}
	w.Wait()
	for i := 0; i < P-1; i++ {
		// All ranks posted before the death, so the slot completed; the
		// survivors must receive the full reduction.
		if err := <-errs; err != nil {
			t.Errorf("survivor of a post-then-die victim got %v, want completed result", err)
		}
	}
}

// TestRepairWithoutFailureIsHarmlessEpochBump: Repair on a healthy world
// must not wedge anything; ranks that join the new epoch keep talking.
func TestRepairIsolation(t *testing.T) {
	w := NewWorld(testConfig(2))
	epochCh := make(chan int, 1)
	w.Spawn(0, 0, func(c *Comm) error {
		e := <-epochCh
		c.JoinEpoch(e)
		_, err := c.AllreduceScalar(1, OpSum)
		return err
	})
	w.Spawn(1, 0, func(c *Comm) error {
		e := <-epochCh
		c.JoinEpoch(e)
		_, err := c.AllreduceScalar(1, OpSum)
		return err
	})
	e := w.Repair()
	epochCh <- e
	epochCh <- e
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestEmitStampsRankAndClock pins Config.Observer and (*Comm).Emit:
// point events arrive stamped with the emitting rank and its clock
// (whatever the caller put there), a rank reporting its own death just
// before Die carries its final clock, spans keep their start as T with
// Dur and Wait measured by the Comm, and nothing in the world emits on
// its own — not Die, not the external World.Kill.
func TestEmitStampsRankAndClock(t *testing.T) {
	const P = 3
	const victim = 2
	var mu sync.Mutex
	var got []obs.Event
	cfg := testConfig(P)
	cfg.Observer = func(ev obs.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}
	w := NewWorld(cfg)
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			if c.Rank() == victim {
				start, mark := c.SpanStart(), c.WaitMark()
				c.AdvanceClock(2.5)
				c.SpanEndWait("phase", start, mark)
				c.Emit(obs.Event{Name: "rank_kill", Rank: 99, T: 99})
				return c.Die()
			}
			_, err := c.AllreduceScalar(1, OpSum)
			return err
		})
	}
	w.Wait()
	want := []obs.Event{
		{Name: obs.EventSpan, Rank: victim, T: 0, Dur: 2.5, Detail: "phase"},
		{Name: "rank_kill", Rank: victim, T: 2.5},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("observer saw %+v, want %+v", got, want)
	}
	w2 := NewWorld(cfg)
	w2.Kill(0)
	if len(got) != len(want) {
		t.Fatalf("World.Kill emitted an event: %+v", got[len(want):])
	}
	// Without an observer Emit is a no-op.
	if err := Run(testConfig(1), func(c *Comm) error {
		c.Emit(obs.Event{Name: "x"})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
