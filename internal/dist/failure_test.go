package dist

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/problems"
)

// TestFailureSemanticsMidApply: a rank dies between collective applies;
// every surviving rank's next distributed operation must surface
// comm.ErrRankFailed (never hang, never return garbage), for each
// operator family and for the BLAS-1 reductions — the contract LFLR
// recovery and FT-GMRES are built on.
func TestFailureSemanticsMidApply(t *testing.T) {
	const p, victim, dieAt = 4, 2, 3
	a := problems.ConvDiff2D(8, 8, 5, 2)
	xg := testVector(a.Rows)

	type mk func(c *comm.Comm) func() error
	cases := map[string]mk{
		"csr": func(c *comm.Comm) func() error {
			op := NewCSR(c, a)
			x := op.Scatter(xg)
			y := make([]float64, op.LocalLen())
			return func() error { return op.Apply(x, y) }
		},
		"stencil3": func(c *comm.Comm) func() error {
			op := NewStencil3(c, 40, -1, 2, -1)
			x := make([]float64, op.LocalLen())
			y := make([]float64, op.LocalLen())
			return func() error { return op.Apply(x, y) }
		},
		"stencil5": func(c *comm.Comm) func() error {
			op := NewStencil5(c, 5, 12, 2.2, -0.3)
			x := make([]float64, op.LocalLen())
			y := make([]float64, op.LocalLen())
			return func() error { return op.Apply(x, y) }
		},
		"norm2": func(c *comm.Comm) func() error {
			v := []float64{1, 2, 3}
			return func() error { _, err := Norm2(c, v); return err }
		},
	}

	for name, build := range cases {
		w := comm.NewWorld(comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 11})
		survivors := make(chan error, p-1)
		for r := 0; r < p; r++ {
			w.Spawn(r, 0, func(c *comm.Comm) error {
				apply := build(c)
				for step := 0; ; step++ {
					if c.Rank() == victim && step == dieAt {
						return c.Die()
					}
					if err := apply(); err != nil {
						survivors <- err
						return err
					}
				}
			})
		}
		w.Wait()
		for i := 0; i < p-1; i++ {
			if err := <-survivors; !errors.Is(err, comm.ErrRankFailed) {
				t.Errorf("%s: survivor got %v, want comm.ErrRankFailed", name, err)
			}
		}
	}
}

// TestKilledRankSeesErrKilled: the failed rank itself gets ErrKilled
// from its next operation, not ErrRankFailed.
func TestKilledRankSeesErrKilled(t *testing.T) {
	const p = 3
	a := problems.ConvDiff2D(6, 6, 1, 1)
	xg := testVector(a.Rows)
	w := comm.NewWorld(comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 13})
	got := make(chan error, 1)
	for r := 0; r < p; r++ {
		w.Spawn(r, 0, func(c *comm.Comm) error {
			op := NewCSR(c, a)
			x := op.Scatter(xg)
			y := make([]float64, op.LocalLen())
			if c.Rank() == 1 {
				w.Kill(1) // asynchronous external kill, then try to communicate
				err := op.Apply(x, y)
				got <- err
				return err
			}
			for {
				if err := op.Apply(x, y); err != nil {
					return err
				}
			}
		})
	}
	w.Wait()
	if err := <-got; !errors.Is(err, comm.ErrKilled) {
		t.Errorf("killed rank got %v, want comm.ErrKilled", err)
	}
}
