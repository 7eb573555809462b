package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(42)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	c1 := r.Split()
	c2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams collide %d times", same)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean, variance := sum/n, sum2/n
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Errorf("normal moments off: mean=%v var=%v", mean, variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean %v", mean)
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	f := func(deltas []float64) bool {
		var k Clock
		prev := 0.0
		for _, d := range deltas {
			if math.IsNaN(d) {
				d = 0
			}
			k.Advance(d) // negative deltas must be ignored
			if k.Now() < prev {
				return false
			}
			prev = k.Now()
		}
		k.SyncTo(prev - 100) // must not move backward
		return k.Now() == prev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollectiveCostLogGrowth(t *testing.T) {
	c := DefaultCostModel()
	t2 := c.Collective(2, 8)
	t1024 := c.Collective(1024, 8)
	// log2(1024)=10 vs log2(2)=1: exactly 10x the hop count.
	if math.Abs(t1024/t2-10) > 1e-9 {
		t.Errorf("tree cost should scale with log2(P): ratio %v", t1024/t2)
	}
	if c.Collective(1, 8) != 0 {
		t.Error("single-rank collective should be free")
	}
}

func TestNoiseModels(t *testing.T) {
	rng := NewRNG(11)
	if d := (NoNoise{}).Draw(rng, 1); d != 0 {
		t.Errorf("NoNoise drew %v", d)
	}
	jitter := UniformJitter{Frac: 0.5}
	neg := 0
	for i := 0; i < 1000; i++ {
		if jitter.Draw(rng, 1) < 0 {
			neg++
		}
	}
	if neg > 0 {
		t.Errorf("noise must be non-negative, got %d negative draws", neg)
	}
}

// TestFixedSpikeInvariantToPhaseSplitting: the expected noise of a fixed
// amount of compute must not depend on how it is sliced into phases —
// the property that makes FixedSpike fair for comparing fused vs split
// kernels.
func TestFixedSpikeInvariantToPhaseSplitting(t *testing.T) {
	spike := FixedSpike{Rate: 1000, Duration: 10e-6}
	const totalCompute = 1.0 // seconds
	const trials = 200

	measure := func(phases int, seed uint64) float64 {
		rng := NewRNG(seed)
		total := 0.0
		d := totalCompute / float64(phases)
		for tr := 0; tr < trials; tr++ {
			for p := 0; p < phases; p++ {
				total += spike.Draw(rng, d)
			}
		}
		return total / trials
	}
	coarse := measure(10, 1)
	fine := measure(10000, 2)
	want := spike.Rate * totalCompute * spike.Duration // = 10 ms
	for _, got := range []float64{coarse, fine} {
		if got < want/2 || got > want*2 {
			t.Errorf("expected noise ~%g, got %g", want, got)
		}
	}
	ratio := coarse / fine
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("noise depends on phase splitting: coarse %g vs fine %g", coarse, fine)
	}
}

func TestFixedSpikeLargeMean(t *testing.T) {
	// Rate·d ≫ 1 must produce ~Rate·d spikes (Poisson/normal regime),
	// not clamp at one.
	spike := FixedSpike{Rate: 1e6, Duration: 1e-6}
	rng := NewRNG(3)
	total := 0.0
	const trials = 100
	for i := 0; i < trials; i++ {
		total += spike.Draw(rng, 1e-3) // mean 1000 spikes of 1µs = 1ms
	}
	mean := total / trials
	if mean < 0.8e-3 || mean > 1.2e-3 {
		t.Errorf("large-mean noise %g, want ~1e-3", mean)
	}
}
