package comm

import (
	"errors"
	"runtime"
	"strings"
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
		"allreduce": func(c *Comm) error {
			_, err := c.AllreduceScalar(1, OpSum)
			return err
		},
		"allreduce-into": func(c *Comm) error {
			buf := []float64{1, 2}
			return c.AllreduceInto(buf, OpMax, buf)
		},
		"allgather": func(c *Comm) error {
			_, err := c.Allgather([]float64{1})
			return err
		},
		"start-waitinto": func(c *Comm) error {
			buf := []float64{1}
			var req Request
			c.StartAllreduce(buf, OpSum, &req)
			_, err := req.WaitInto(buf)
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
		// The victim is the last rank, so under the FIFO driver every
		// survivor is already blocked inside the operation when it dies.
		w := NewWorld(testConfig(P))
		for r := 0; r < P; r++ {
			w.Spawn(r, 0, func(c *Comm) error {
				if c.Rank() == victim {
					return c.Die()
				}
				return doOp(c)
			})
		}
		for r, err := range w.Wait() {
			if r != victim && !errors.Is(err, ErrRankFailed) {
				t.Errorf("%s: survivor %d got %v, want ErrRankFailed", name, r, err)
			}
		}
	}
}

// TestOpsAfterOwnDeathReturnKilled: every operation on a dead rank's comm
// reports ErrKilled.
func TestOpsAfterOwnDeathReturnKilled(t *testing.T) {
	w := NewWorld(testConfig(2))
	w.Spawn(0, 0, func(c *Comm) error {
		_ = c.Die()
		if _, err := c.Allgather([]float64{1}); !errors.Is(err, ErrKilled) {
			t.Errorf("Allgather after death: %v", err)
		}
		var req Request
		c.StartAllreduce([]float64{1}, OpSum, &req)
		if _, err := req.WaitInto(make([]float64, 1)); !errors.Is(err, ErrKilled) {
			t.Errorf("StartAllreduce/WaitInto after death: %v", err)
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
		return ErrKilled
	})
	w.Spawn(1, 0, func(c *Comm) error { return nil })
	w.Wait()
}

// TestSendToFailedRankFailsFast: sending to a known-dead rank errors
// immediately instead of queueing to nowhere. Rank 2 is spawned first,
// so it has died by the time rank 0 runs.
func TestSendToFailedRankFailsFast(t *testing.T) {
	w := NewWorld(testConfig(3))
	w.Spawn(2, 0, func(c *Comm) error { return c.Die() })
	w.Spawn(0, 0, func(c *Comm) error {
		if err := c.Send(2, 0, []float64{1}); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Send to dead rank: %v", err)
		}
		return nil
	})
	w.Spawn(1, 0, func(c *Comm) error { return nil })
	w.Wait()
}

// TestKillDuringNonBlockingAllreduce kills a rank at each stage of an
// in-flight StartAllreduce/WaitInto — the victim never posts, the kill
// lands while the earlier ranks are blocked in WaitInto, the kill lands
// after the last post but before anyone waits — with every rank as the
// victim. The failure-semantics invariant: a WaitInto either returns
// the complete, correct reduction or ErrRankFailed (ErrKilled on the
// victim itself), never garbage, never a hang; and under the
// run-to-block driver which of the two is fixed per stage.
func TestKillDuringNonBlockingAllreduce(t *testing.T) {
	const P = 4
	type result struct {
		sum float64
		n   int
		err error
	}
	for _, stage := range []string{"never-posts", "while-blocked", "after-completion"} {
		for victim := 0; victim < P; victim++ {
			w := NewWorld(testConfig(P))
			got := make([]result, P)
			for r := 0; r < P; r++ {
				w.Spawn(r, 0, func(c *Comm) error {
					if stage == "never-posts" && c.Rank() == victim {
						return nil // exits without posting; Kill hits it outside any op
					}
					if stage == "while-blocked" && c.Rank() == P-1 {
						w.Kill(victim) // every earlier rank sits in WaitInto
					}
					buf := []float64{1}
					var req Request
					c.StartAllreduce(buf, OpSum, &req)
					if stage != "while-blocked" {
						if err := c.Park(); err != nil {
							return err
						}
					}
					n, err := req.WaitInto(buf)
					got[c.Rank()] = result{buf[0], n, err}
					return err
				})
			}
			if stage != "while-blocked" {
				w.Wait() // everyone who posts has posted and parked
				w.Kill(victim)
				for r := 0; r < P; r++ {
					if stage != "never-posts" || r != victim {
						w.Release(r)
					}
				}
			}
			w.Wait()
			for r, g := range got {
				switch {
				case r == victim && stage == "never-posts":
					// left before the collective; nothing to check
				case r == victim:
					if !errors.Is(g.err, ErrKilled) {
						t.Errorf("%s victim %d: got %v, want ErrKilled", stage, victim, g.err)
					}
				case stage == "after-completion":
					// All ranks posted before the kill: the slot is
					// complete and survivors must get the full sum.
					if g.err != nil || g.n != 1 || g.sum != P {
						t.Errorf("%s victim %d rank %d: got %v (n=%d, err %v), want the completed reduction %v",
							stage, victim, r, g.sum, g.n, g.err, float64(P))
					}
				default:
					if !errors.Is(g.err, ErrRankFailed) {
						t.Errorf("%s victim %d rank %d: survivor got %v, want ErrRankFailed", stage, victim, r, g.err)
					}
				}
			}
		}
	}
}

// TestKillBetweenPostAndWait pins the corner of the non-blocking
// failure semantics that decides whether overlap survives a failure: an
// Allreduce completes when the last rank posts, so a victim that posts
// and *then* dies must not abort the survivors — their WaitInto holds a
// completed slot and returns the full reduction, not ErrRankFailed.
func TestKillBetweenPostAndWait(t *testing.T) {
	const P = 3
	w := NewWorld(testConfig(P))
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			buf := []float64{1}
			var req Request
			c.StartAllreduce(buf, OpSum, &req)
			if err := c.Park(); err != nil { // until the collective is complete
				return err
			}
			if c.Rank() == 0 {
				return c.Die()
			}
			n, err := req.WaitInto(buf)
			if err == nil && (n != 1 || buf[0] != P) {
				t.Errorf("rank %d: completed reduction returned %v (n=%d)", c.Rank(), buf[0], n)
			}
			return err
		})
	}
	w.Wait()
	for r := 0; r < P; r++ {
		w.Release(r) // rank 0 first: the death precedes every survivor's wait
	}
	for r, err := range w.Wait() {
		if r != 0 && err != nil {
			t.Errorf("survivor %d of a post-then-die victim got %v, want completed result", r, err)
		}
	}
}

// TestRepairIsolation: Repair on a healthy world must not wedge
// anything; ranks that join the new epoch keep talking.
func TestRepairIsolation(t *testing.T) {
	w := NewWorld(testConfig(2))
	var epoch int
	for r := 0; r < 2; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			if err := c.Park(); err != nil {
				return err
			}
			c.JoinEpoch(epoch)
			_, err := c.AllreduceScalar(1, OpSum)
			return err
		})
	}
	w.Wait()
	epoch = w.Repair()
	w.Release(0)
	w.Release(1)
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestDeadlockIsAnError: a world in which some rank can never be woken
// must not hang. Wait unwinds every pending rank — no coroutine outlives
// it — and reports ErrDeadlock naming the blocked ranks and what each
// waits for.
func TestDeadlockIsAnError(t *testing.T) {
	cases := []struct {
		name string
		fn   func(c *Comm) error
		want []string
	}{
		{"unmatched recv", func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := c.Recv(1, 99) // rank 1 never sends
				return err
			}
			return nil
		}, []string{"rank 0: ", "rank 0 in recv (src 1, tag 99)"}},
		{"skipped collective", func(c *Comm) error {
			if _, err := c.Allgather(nil); err != nil {
				return err
			}
			if c.Rank() == 1 {
				return nil // skips the allreduce the others enter
			}
			_, err := c.AllreduceScalar(1, OpSum)
			return err
		}, []string{"rank 0 in allreduce (epoch 0, seq 1, 2 of 3 arrived)", "rank 2 in allreduce"}},
		{"parked beside a blocked rank", func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Park() // nobody is left to release it
			}
			_, err := c.Recv(0, 1)
			return err
		}, []string{"rank 1 in recv (src 0, tag 1)", "rank 2 in recv"}},
		{"error swallowed by the rank function", func(c *Comm) error {
			if c.Rank() == 1 {
				_, _ = c.Recv(0, 5) // the exit slot still reports it
			}
			return nil
		}, []string{"rank 1: ", "rank 1 in recv (src 0, tag 5)"}},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		err := Run(testConfig(3), tc.fn)
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: Run returned %v, want ErrDeadlock", tc.name, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
		// Only growth is a leak: a straggler from an earlier test may exit
		// in between.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before Run, %d after: a coroutine outlived Wait", tc.name, before, after)
		}
	}
}

// TestRankPanicSurfacesFromRun: a panic in a rank function reaches the
// goroutine driving the world, after the other ranks' coroutines have
// been stopped.
func TestRankPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound error
	func() {
		defer func() {
			if p := recover(); p != "rank 2 is unwell" {
				t.Errorf("recovered %v, want rank 2's panic value", p)
			}
		}()
		_ = Run(testConfig(3), func(c *Comm) error {
			if c.Rank() == 2 {
				panic("rank 2 is unwell")
			}
			_, err := c.AllreduceScalar(1, OpSum)
			if c.Rank() == 0 {
				unwound = err
			}
			return err
		})
		t.Error("Run returned instead of panicking")
	}()
	if unwound == nil {
		t.Error("the blocked ranks were not unwound with an error")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after: a coroutine outlived the panic", before, after)
	}
}

// TestTwoWorldsConcurrently drives two worlds from two goroutines at
// once. Worlds share nothing but an optional Ledger, so under -race this
// pins that the lock-free world really is confined to its driver.
func TestTwoWorldsConcurrently(t *testing.T) {
	ledger := &Ledger{}
	sums := make([]float64, 2)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const P = 5
			cfg := testConfig(P)
			cfg.Ledger = ledger
			w := NewWorld(cfg)
			for r := 0; r < P; r++ {
				w.Spawn(r, 0, func(c *Comm) error {
					for step := 0; step < 50; step++ {
						if err := c.Send((c.Rank()+1)%P, step, []float64{1}); err != nil {
							return err
						}
						if _, err := c.Recv((c.Rank()+P-1)%P, step); err != nil {
							return err
						}
						s, err := c.AllreduceScalar(float64(step), OpSum)
						if err != nil {
							return err
						}
						if c.Rank() == 0 {
							sums[i] += s
						}
						if step == 25 {
							if err := c.Park(); err != nil {
								return err
							}
						}
					}
					return nil
				})
			}
			w.Wait()
			for r := 0; r < P; r++ {
				w.Release(r)
			}
			for r, err := range w.Wait() {
				if err != nil {
					t.Errorf("world %d rank %d: %v", i, r, err)
				}
			}
		}()
	}
	wg.Wait()
	if want := 5.0 * 49 * 50 / 2; sums[0] != want || sums[1] != want {
		t.Errorf("sums %v, want both %v", sums, want)
	}
	if snap := ledger.Snapshot(); snap.Worlds != 2 || snap.Ranks != 10 || snap.Stats.Collective != 2*5*50 {
		t.Errorf("ledger %+v, want 2 worlds, 10 ranks, 500 collectives", snap)
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
