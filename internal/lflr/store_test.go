package lflr

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
)

func TestStoreSaveRestoreRoundtrip(t *testing.T) {
	s := newStore()
	w := comm.NewWorld(comm.Config{Ranks: 2, Cost: machine.DefaultCostModel(), Seed: 1})
	w.Spawn(0, 0, func(c *comm.Comm) error {
		s.save(c, "u", []float64{1, 2, 3})
		s.saveScalar(c, "step", 42)
		v, ok := s.restore(c, "u")
		if !ok || len(v) != 3 || v[1] != 2 {
			t.Errorf("restore: %v %v", v, ok)
		}
		sc, ok := s.restoreScalar(c, "step")
		if !ok || sc != 42 {
			t.Errorf("scalar: %v %v", sc, ok)
		}
		if _, ok := s.restore(c, "missing"); ok {
			t.Error("missing key restored")
		}
		return nil
	})
	w.Spawn(1, 0, func(c *comm.Comm) error {
		// Rank isolation: rank 1 must not see rank 0's data.
		if _, ok := s.restore(c, "u"); ok {
			t.Error("cross-rank leak")
		}
		return nil
	})
	w.Wait()
}

func TestStoreChargesVirtualTime(t *testing.T) {
	s := newStore()
	w := comm.NewWorld(comm.Config{Ranks: 1, Cost: machine.DefaultCostModel(), Seed: 1})
	w.Spawn(0, 0, func(c *comm.Comm) error {
		before := c.Clock()
		s.save(c, "big", make([]float64, 100000))
		if c.Clock() <= before {
			t.Error("Save must cost virtual time (replication transfer)")
		}
		mid := c.Clock()
		if _, ok := s.restore(c, "big"); !ok {
			t.Fatal("restore failed")
		}
		if c.Clock() <= mid {
			t.Error("Restore must cost virtual time (replica fetch)")
		}
		return nil
	})
	w.Wait()
}

func TestStoreOverwrite(t *testing.T) {
	s := newStore()
	w := comm.NewWorld(comm.Config{Ranks: 1, Cost: machine.DefaultCostModel(), Seed: 1})
	w.Spawn(0, 0, func(c *comm.Comm) error {
		s.save(c, "k", []float64{1})
		s.save(c, "k", []float64{9, 9})
		v, _ := s.restore(c, "k")
		if len(v) != 2 || v[0] != 9 {
			t.Errorf("overwrite failed: %v", v)
		}
		// Restore gives a copy: mutating it must not alter the store.
		v[0] = -1
		v2, _ := s.restore(c, "k")
		if v2[0] != 9 {
			t.Error("restore aliases the stored data")
		}
		return nil
	})
	w.Wait()
}
