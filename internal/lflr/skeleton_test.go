package lflr

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestRunRejectsBadGeometry: the skeleton's one validation answers for
// all three apps, before any world is driven — more ranks than rows or
// cells, a grid with no columns and a negative step count are errors,
// not panics on a rank coroutine.
func TestRunRejectsBadGeometry(t *testing.T) {
	run := map[string]func(p, nx, n, steps int) error{
		"heat": func(p, nx, n, steps int) error {
			_, err := RunHeat(heatWorld(p), NewStore(), HeatConfig{Nx: nx, Ny: n, Nu: 0.25, Steps: steps})
			return err
		},
		"advect": func(p, _, n, steps int) error {
			_, err := RunAdvection(heatWorld(p), NewStore(), AdvectConfig{N: n, C: 0.5, Steps: steps})
			return err
		},
		"implicit": func(p, nx, n, steps int) error {
			_, err := RunImplicitHeat(heatWorld(p), NewStore(), ImplicitConfig{Nx: nx, Ny: n, Nu: 1, Steps: steps})
			return err
		},
	}
	for name, f := range run {
		if err := f(3, 4, 8, 2); err != nil {
			t.Errorf("%s: a valid run failed: %v", name, err)
		}
		for _, tc := range []struct {
			what             string
			p, nx, n, steps  int
			want             string
			skipOneDimension bool
		}{
			{"more ranks than rows", 9, 4, 8, 2, "lflr: 9 ranks exceed 8 ", false},
			{"no rows", 1, 4, 0, 2, "lflr: 1 ranks exceed 0 ", false},
			{"no columns", 3, 0, 8, 2, "lflr: grid width 0", true},
			{"negative steps", 3, 4, 8, -1, "lflr: -1 steps", false},
		} {
			if tc.skipOneDimension && name == "advect" {
				continue
			}
			err := f(tc.p, tc.nx, tc.n, tc.steps)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %v, want one starting %q", name, tc.what, err, tc.want)
			}
		}
	}
}

// TestLoneRankCannotRecover: a one-rank world that loses its rank has no
// survivor to agree a target step with. That is an error from the
// agreement, not a replay towards a step nobody named.
func TestLoneRankCannotRecover(t *testing.T) {
	_, err := RunHeat(heatWorld(1), NewStore(), HeatConfig{
		Nx: 4, Ny: 6, Nu: 0.25, Steps: 20, PersistEvery: 5, Killer: &fault.StepKiller{Rank: 0, Step: 7},
	})
	if err == nil || !strings.Contains(err.Error(), "no survivor") {
		t.Fatalf("error %v, want the agreement's no-survivor error", err)
	}
}
