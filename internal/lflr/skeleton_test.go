package lflr

import (
	"reflect"
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
		Nx: 4, Ny: 6, Nu: 0.25, Steps: 20, PersistEvery: 5, Faults: plan(fault.StepKill(0, 7)),
	})
	if err == nil || !strings.Contains(err.Error(), "no survivor") {
		t.Fatalf("error %v, want the agreement's no-survivor error", err)
	}
}

// TestKillConfigIsReusable: a config holding a plan describes any number
// of runs — the kills' fired-once state belongs to the run — so one
// config value run twice gives identical results, recoveries included,
// for each of the three apps.
func TestKillConfigIsReusable(t *testing.T) {
	heat := HeatConfig{Nx: 16, Ny: 40, Nu: 0.25, Steps: 100, PersistEvery: 20, Faults: plan(fault.StepKill(2, 47))}
	if h1, h2 := runScenario(t, 5, heat), runScenario(t, 5, heat); h1.Recoveries != 1 || !reflect.DeepEqual(h1, h2) {
		t.Errorf("heat: recoveries %d then %d, want 1 and identical results", h1.Recoveries, h2.Recoveries)
	}
	two := plan(fault.StepKill(1, 25), fault.StepKill(3, 55))
	heat.Faults = two
	if h1, h2 := runScenario(t, 5, heat), runScenario(t, 5, heat); h1.Recoveries != 2 || !reflect.DeepEqual(h1, h2) {
		t.Errorf("heat, two kills: recoveries %d then %d, want 2 and identical results", h1.Recoveries, h2.Recoveries)
	}
	adv := AdvectConfig{N: 200, C: 0.5, Steps: 120, PersistEvery: 20, Faults: two}
	if a1, a2 := runAdvect(t, 5, adv), runAdvect(t, 5, adv); a1.Recoveries != 2 || !reflect.DeepEqual(a1, a2) {
		t.Errorf("advection: recoveries %d then %d, want 2 and identical results", a1.Recoveries, a2.Recoveries)
	}
	imp := ImplicitConfig{Nx: 16, Ny: 24, Nu: 1, Steps: 12, Coarsen: 2, Faults: plan(fault.StepKill(2, 6))}
	if i1, i2 := runImplicit(t, 4, imp), runImplicit(t, 4, imp); i1.Recoveries != 1 || !reflect.DeepEqual(i1, i2) {
		t.Errorf("implicit heat: recoveries %d then %d, want 1 and identical results", i1.Recoveries, i2.Recoveries)
	}
}
