package bench

import (
	"strings"
	"testing"
)

func TestFormatHelpers(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5"},
		{123.456, "123.5"},
		{1e-7, "1.000e-07"},
		{3e9, "3.000e+09"},
	}
	for _, c := range cases {
		if got := f(c.in); got != c.want {
			t.Errorf("f(%g) = %q, want %q", c.in, got, c.want)
		}
	}
	if pct(1, 4) != "25%" || pct(0, 0) != "n/a" {
		t.Errorf("pct: %s %s", pct(1, 4), pct(0, 0))
	}
	if speedup(2, 1) != "2.00x" || speedup(0, 1) != "n/a" {
		t.Errorf("speedup: %s %s", speedup(2, 1), speedup(0, 1))
	}
	if slow(1, 3) != "3.00x" || slow(0, 1) != "n/a" {
		t.Errorf("slow: %s %s", slow(1, 3), slow(0, 1))
	}
	if onOff(true) != "on" || onOff(false) != "off" {
		t.Error("onOff")
	}
	if maxInt([]int{3, 9, 1}) != 9 || maxInt(nil) != 0 {
		t.Error("maxInt")
	}
	if yesNo(true) != "yes" || yesNo(false) != "no" {
		t.Error("yesNo")
	}
}

// TestScalingHelpersAtSmallP exercises the machinery the slow sweeps use,
// at a size cheap enough for every `go test` run.
func TestScalingHelpersAtSmallP(t *testing.T) {
	const p, nLocal, iters = 4, 64, 5
	perIter := func(s sweepSolver) float64 {
		t.Helper()
		st, err := sweepSolve(RunCtx{Seed: 1}, p, nLocal, nil, s, 1e-30, iters)
		if err != nil || st.Iterations != iters || st.VirtualTime <= 0 {
			t.Errorf("sweepSolve(%d): %d iterations in %g s, %v; want %d", s, st.Iterations, st.VirtualTime, err, iters)
		}
		got, err := timePerIter(RunCtx{Seed: 1}, p, nLocal, iters, s, nil)
		if err != nil || got != st.VirtualTime/iters {
			t.Errorf("timePerIter(%d) = %g, %v; want %g", s, got, err, st.VirtualTime/iters)
		}
		return got
	}
	for _, s := range []sweepSolver{sweepCG, sweepPipelinedCG, sweepGMRES, sweepP1GMRES, sweepCGSGMRES} {
		perIter(s)
	}
	// Ordering sanity at tiny scale: MGS is already the most
	// reduction-heavy variant.
	mgs := perIter(sweepGMRES)
	p1 := perIter(sweepP1GMRES)
	if p1 >= mgs {
		t.Errorf("even at P=4, p1 (%g) should not lose to MGS (%g)", p1, mgs)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "t", Claim: "c",
		Columns: []string{"a", "long-column"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333333", "4")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("short render: %q", out)
	}
	// Header and separator must align with the widest cell.
	if !strings.Contains(out, "------") {
		t.Error("missing separator")
	}
}
