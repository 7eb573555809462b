package stats

import (
	"math"
	"testing"
)

// TestQuantileNearestRank pins the nearest-rank definition against
// hand-computed values across sample sizes.
func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{0, 0.5, 0},
		{1, 0.025, 1}, {1, 0.5, 1}, {1, 1, 1},
		{2, 0.5, 1}, {2, 0.9, 2},
		{3, 0.5, 2}, {3, 0.99, 3},
		{10, 0.05, 1}, {10, 0.5, 5}, {10, 0.9, 9}, {10, 0.99, 10}, {10, 1, 10},
		{200, 0.025, 5}, {200, 0.5, 100}, {200, 0.9, 180}, {200, 0.975, 195}, {200, 0.99, 198}, {200, 0.999, 200},
	} {
		if got := Quantile(seq(c.n), c.p); got != c.want {
			t.Errorf("n=%d p=%g: got %g, want %g", c.n, c.p, got, c.want)
		}
	}
}

// TestQuantileMatchesBothItReplaced keeps the two formulas this
// package replaced — campaign's ceil(p·n)−1 and traceq's
// int(p·n+0.999999)−1 — as references and compares them on every p the
// repo uses at every n up to 4096: the evidence that folding them into
// one moved no aggregate and no report.
func TestQuantileMatchesBothItReplaced(t *testing.T) {
	clamp := func(idx, n int) int { return max(0, min(idx, n-1)) }
	campaign := func(p float64, n int) int { return clamp(int(math.Ceil(p*float64(n)))-1, n) }
	traceq := func(p float64, n int) int { return clamp(int(p*float64(n)+0.999999)-1, n) }
	sorted := make([]float64, 4096)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	for _, p := range []float64{0.025, 0.5, 0.9, 0.975, 0.99, 0.999} {
		for n := 1; n <= len(sorted); n++ {
			got := Quantile(sorted[:n], p)
			if c, q := campaign(p, n), traceq(p, n); got != float64(c) || got != float64(q) {
				t.Fatalf("p=%g n=%d: Quantile picks index %g, campaign's formula %d, traceq's %d", p, n, got, c, q)
			}
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean not 0")
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
}
