package dist

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/problems"
)

// TestFaultyPreservesMetadata checks the adapter's pass-throughs, and
// that its applies are occurrences of the operator site: a kill at the
// third apply strikes there, and a reliable adapter counts applies but
// flips no bit of their results.
func TestFaultyPreservesMetadata(t *testing.T) {
	a := problems.Poisson1D(40)
	pt := Partition{N: a.Rows, P: 2}
	plan := fault.Plan{Seed: 1, Entries: []fault.Entry{
		fault.Sustained(fault.SiteApply, 1),
		{Kind: fault.Kill, Rank: 1, Site: fault.SiteApply, At: 2},
	}}
	for _, reliable := range []bool{false, true} {
		run, err := fault.NewRun(plan, 2, pt.Len)
		if err != nil {
			t.Fatal(err)
		}
		applies := make([]int, 2)
		err = comm.Run(comm.Config{Ranks: 2, Cost: machine.DefaultCostModel(), Seed: 5}, func(c *comm.Comm) error {
			inner := NewCSR(c, a)
			f := &Faulty{Inner: inner, Faults: run.Rank(c), Reliable: reliable}
			if f.LocalLen() != inner.LocalLen() || f.GlobalLen() != 40 {
				t.Error("length pass-through broken")
			}
			if f.NormInf() != inner.NormInf() {
				t.Error("NormInf pass-through broken")
			}
			x := make([]float64, f.LocalLen())
			y := make([]float64, f.LocalLen())
			for i := range x {
				x[i] = 1
			}
			for range 4 {
				if err := f.Apply(x, y); err != nil {
					return err
				}
				applies[c.Rank()]++
			}
			return nil
		})
		if !errors.Is(err, comm.ErrKilled) && !errors.Is(err, comm.ErrRankFailed) {
			t.Errorf("reliable %v: world error %v, want the kill", reliable, err)
		}
		if applies[1] != 2 {
			t.Errorf("reliable %v: rank 1 completed %d applies, want 2 before the kill", reliable, applies[1])
		}
		if flipped := run.Flips() > 0; flipped == reliable {
			t.Errorf("reliable %v: %d bits flipped", reliable, run.Flips())
		}
	}
}
