package comm

import (
	"errors"
	"testing"
)

// The tests below pin World.colls, the open collective slots indexed by
// seq - collBase: slots may finish in any order and any number may be
// open at once, the base only moves past a fully departed prefix, and a
// Repair starts the next epoch from an empty list.

// wantNoOpenSlots asserts that every slot has been retired.
func wantNoOpenSlots(t *testing.T, w *World, wantBase int) {
	t.Helper()
	if len(w.colls) != 0 || w.collBase != wantBase {
		t.Errorf("after the run: %d open slots, base %d; want 0 open, base %d", len(w.colls), w.collBase, wantBase)
	}
}

// TestCollectivesCompleteInReverseOrder: two all-reduces are posted by
// every rank and waited for newest first, so the later slot retires
// while the earlier one is still open.
func TestCollectivesCompleteInReverseOrder(t *testing.T) {
	const P = 3
	w := NewWorld(testConfig(P))
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			for round := 0; round < 4; round++ {
				a, b := []float64{1}, []float64{float64(c.Rank())}
				var ra, rb Request
				c.StartAllreduce(a, OpSum, &ra)
				c.StartAllreduce(b, OpMax, &rb)
				if _, err := rb.WaitInto(b); err != nil {
					return err
				}
				if _, err := ra.WaitInto(a); err != nil {
					return err
				}
				if a[0] != P || b[0] != P-1 {
					t.Errorf("rank %d round %d: sum %v max %v, want %d and %d", c.Rank(), round, a[0], b[0], P, P-1)
				}
			}
			return nil
		})
	}
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	wantNoOpenSlots(t, w, 8)
}

// TestOneRankFarAhead: rank 0 posts 40 collectives before any other
// rank posts one, so 40 slots are open at once; everyone then drains
// them in order and gets every result.
func TestOneRankFarAhead(t *testing.T) {
	const P, ahead = 4, 40
	w := NewWorld(testConfig(P))
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			reqs := make([]Request, ahead)
			for i := range reqs {
				c.StartAllreduce([]float64{float64(i)}, OpSum, &reqs[i])
			}
			if c.Rank() == 0 && len(w.colls) != ahead {
				t.Errorf("rank 0 posted %d collectives alone, %d slots open", ahead, len(w.colls))
			}
			got := make([]float64, 1)
			for i := range reqs {
				if _, err := reqs[i].WaitInto(got); err != nil {
					return err
				}
				if got[0] != float64(P*i) {
					t.Errorf("rank %d collective %d: got %v, want %d", c.Rank(), i, got[0], P*i)
				}
			}
			_, err := c.AllreduceScalar(1, OpSum)
			return err
		})
	}
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	wantNoOpenSlots(t, w, ahead+1)
}

// TestRepairWithOpenSlots: a failure leaves one slot complete but not
// yet consumed and one that can never complete. After Repair the
// completed one still delivers — its last departure must leave the new
// epoch's slots alone — the other reports the failure, and collectives
// of the new epoch start again at sequence number 0.
func TestRepairWithOpenSlots(t *testing.T) {
	const P = 3
	w := NewWorld(testConfig(P))
	var epoch int
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			done, open := []float64{1}, []float64{1}
			var rdone, ropen Request
			c.StartAllreduce(done, OpSum, &rdone)
			if c.Rank() != 0 {
				c.StartAllreduce(open, OpSum, &ropen) // rank 0 never posts this one
			}
			if err := c.Park(); err != nil {
				return err
			}
			// The world has been killed and repaired meanwhile: the cut-short
			// slot reports it. Then a new-epoch collective is posted before
			// the old epoch's completed slot is consumed, so a slot is open
			// at index 0 when that one sees its last departure.
			if c.Rank() != 0 {
				if _, err := ropen.WaitInto(open); !errors.Is(err, ErrRankFailed) {
					t.Errorf("rank %d: slot the failure cut short gave %v, want ErrRankFailed", c.Rank(), err)
				}
			}
			c.JoinEpoch(epoch)
			var rnew Request
			fresh := []float64{2}
			c.StartAllreduce(fresh, OpSum, &rnew)
			if _, err := rdone.WaitInto(done); err != nil || done[0] != P {
				t.Errorf("rank %d: slot completed before the failure gave %v, %v; want %d", c.Rank(), done[0], err, P)
			}
			if _, err := rnew.WaitInto(fresh); err != nil || fresh[0] != 2*P {
				t.Errorf("rank %d: new-epoch collective gave %v, %v; want %d", c.Rank(), fresh[0], err, 2*P)
			}
			for i := 0; i < 3; i++ {
				if sum, err := c.AllreduceScalar(1, OpSum); err != nil || sum != P {
					t.Errorf("rank %d: new-epoch collective %d gave %v, %v", c.Rank(), i, sum, err)
				}
			}
			return nil
		})
	}
	w.Wait() // everyone has posted and parked
	if len(w.colls) != 2 {
		t.Fatalf("%d slots open before the failure, want 2", len(w.colls))
	}
	w.Kill(1)
	epoch = w.Repair()
	if len(w.colls) != 0 || w.collBase != 0 {
		t.Fatalf("Repair left %d open slots, base %d", len(w.colls), w.collBase)
	}
	for r := 0; r < P; r++ {
		w.Release(r)
	}
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	wantNoOpenSlots(t, w, 4)
}

// TestOldEpochRequestAfterJoin: a survivor that joins the new epoch
// first and only then turns to a request it posted before the failure
// must still learn that the request died with the old epoch — WaitInto
// returns ErrRankFailed — rather than wait for posts that can never
// come (it is the request's epoch that matters, not the comm's). The
// new epoch's collectives are unaffected.
func TestOldEpochRequestAfterJoin(t *testing.T) {
	const P = 3
	w := NewWorld(testConfig(P))
	var epoch int
	for r := 0; r < P; r++ {
		w.Spawn(r, 0, func(c *Comm) error {
			var old Request
			buf := []float64{1}
			if c.Rank() != 1 {
				c.StartAllreduce(buf, OpSum, &old) // rank 1 is killed before it posts
			}
			if err := c.Park(); err != nil {
				return err
			}
			c.JoinEpoch(epoch)
			if c.Rank() != 1 {
				if _, err := old.WaitInto(buf); !errors.Is(err, ErrRankFailed) {
					t.Errorf("rank %d: request of the failed epoch gave %v, want ErrRankFailed", c.Rank(), err)
				}
			}
			if sum, err := c.AllreduceScalar(1, OpSum); err != nil || sum != P {
				t.Errorf("rank %d: new-epoch collective gave %v, %v; want %d", c.Rank(), sum, err, P)
			}
			return nil
		})
	}
	w.Wait() // ranks 0 and 2 have posted; everyone is parked
	w.Kill(1)
	epoch = w.Repair()
	for r := 0; r < P; r++ {
		w.Release(r)
	}
	for r, err := range w.Wait() {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	wantNoOpenSlots(t, w, 1)
}
