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
	perIter := func(kind solverKind, pipe bool) float64 {
		t.Helper()
		got, err := timePerIter(RunCtx{Seed: 1}, p, nLocal, iters, kind, pipe, nil)
		if err != nil || got <= 0 {
			t.Errorf("timePerIter(kind=%d pipe=%v) = %g, %v", kind, pipe, got, err)
		}
		return got
	}
	for _, pipe := range []bool{false, true} {
		for _, kind := range []solverKind{cgPair, gmresPair} {
			perIter(kind, pipe)
		}
	}
	perIter(cgsGMRES, false)
	// Ordering sanity at tiny scale: MGS is already the most
	// reduction-heavy variant.
	mgs := perIter(gmresPair, false)
	p1 := perIter(gmresPair, true)
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
