package skp

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/problems"
)

func distCfg(p int) comm.Config {
	return comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 17}
}

// TestDistCheckedCleanPassThrough: no corruption, no detections, product
// matches the plain operator exactly.
func TestDistCheckedCleanPassThrough(t *testing.T) {
	a := problems.ConvDiff2D(12, 12, 10, 5)
	xg := make([]float64, a.Rows)
	for i := range xg {
		xg[i] = float64(i%7) - 3
	}
	want := a.MatVec(xg, nil)
	err := comm.Run(distCfg(3), func(c *comm.Comm) error {
		inner := dist.NewCSR(c, a)
		co := NewDistCheckedOp(inner)
		x := inner.Scatter(xg)
		y := make([]float64, co.LocalLen())
		for rep := 0; rep < 20; rep++ {
			if err := co.Apply(x, y); err != nil {
				return err
			}
		}
		if co.Stats.Detections != 0 {
			t.Errorf("rank %d: %d false positives", c.Rank(), co.Stats.Detections)
		}
		full, err := inner.Gather(y)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := range full {
				if full[i] != want[i] {
					t.Errorf("product differs at %d", i)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistCheckedDetectsAndCorrectsLocally: per-rank upward flips are
// caught and repaired with zero extra communication (verified through
// the per-rank Sends counter).
func TestDistCheckedDetectsAndCorrectsLocally(t *testing.T) {
	a := problems.ConvDiff2D(12, 12, 10, 5)
	xg := make([]float64, a.Rows)
	for i := range xg {
		xg[i] = 1 + float64(i%5)
	}
	err := comm.Run(distCfg(3), func(c *comm.Comm) error {
		// Reference: the clean distributed product (same column remap,
		// hence bitwise comparable; the serial product can differ by an
		// ulp because the slab sums columns in compiled order).
		ref := dist.NewCSR(c, a)
		yRef := make([]float64, ref.LocalLen())
		if err := ref.Apply(ref.Scatter(xg), yRef); err != nil {
			return err
		}
		want, err := ref.Gather(yRef)
		if err != nil {
			return err
		}

		inner := dist.NewCSR(c, a)
		co := NewDistCheckedOp(inner)
		armed := c.Rank() == 1 // only rank 1's kernel faults
		co.Corrupt = func(y []float64) {
			if armed {
				y[2] = fault.FlipBit(y[2], 62)
				armed = false
			}
		}
		x := inner.Scatter(xg)
		y := make([]float64, co.LocalLen())

		sendsBefore := c.Stats().Sends
		if err := co.Apply(x, y); err != nil {
			return err
		}
		// The checked apply (including the corrective retry on rank 1)
		// must send exactly what one plain halo exchange sends.
		if sends := c.Stats().Sends - sendsBefore; sends > 2 {
			t.Errorf("rank %d: checked apply sent %d messages (retry must be communication-free)", c.Rank(), sends)
		}

		if c.Rank() == 1 {
			if co.Stats.Detections != 1 || co.Stats.Corrections != 1 {
				t.Errorf("rank 1: detections=%d corrections=%d", co.Stats.Detections, co.Stats.Corrections)
			}
		} else if co.Stats.Detections != 0 {
			t.Errorf("rank %d: spurious detection", c.Rank())
		}
		full, err := inner.Gather(y)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := range full {
				if full[i] != want[i] {
					t.Errorf("corrected product differs at %d: %v vs %v", i, full[i], want[i])
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistCheckedGMRES: a full distributed skeptical solve — GMRES over
// the checked operator with sustained per-rank faults converges to the
// true solution.
func TestDistCheckedGMRES(t *testing.T) {
	a := problems.ConvDiff2D(16, 16, 20, 10)
	rhs, xstar := problems.ManufacturedRHS(a)
	run, err := fault.NewRun(fault.Plan{Seed: 300, Entries: []fault.Entry{fault.Sustained(fault.SiteApply, 5e-4)}},
		4, dist.Partition{N: a.Rows, P: 4}.Len)
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(distCfg(4), func(c *comm.Comm) error {
		inner := dist.NewCSR(c, a)
		co := NewDistCheckedOp(inner)
		faults := run.Rank(c)
		co.Corrupt = func(y []float64) {
			_ = faults.Enter(fault.SiteApply, -1)
			faults.Corrupt(fault.SiteApply, y)
		}

		local := inner.Scatter(rhs)
		x, st, err := krylov.DistGMRES(c, co, local, nil, krylov.DistGMRESOptions{
			Restart: 40, Tol: 1e-9, MaxIter: 400,
		})
		if err != nil {
			return err
		}
		if !st.Converged {
			t.Errorf("rank %d: not converged (%g)", c.Rank(), st.FinalResidual)
		}
		full, err := inner.Gather(x)
		if err != nil {
			return err
		}
		det, err := c.AllreduceScalar(float64(co.Stats.Detections), comm.OpSum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if e := la.NrmInf(la.Sub(full, xstar)); e > 1e-5 {
				t.Errorf("solution error %g with %v total detections", e, det)
			}
			if det == 0 {
				t.Log("no faults were large enough to detect this run (rate is low); still converged")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
