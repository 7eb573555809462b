package dist

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/machine"
)

// rankCounts is the sweep every agreement test runs over; 143-ish
// global sizes make all of the multi-rank partitions non-divisible.
var rankCounts = []int{1, 2, 3, 7, 8}

func testCfg(p int) comm.Config {
	return comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 42}
}

// testVector returns a deterministic, sign-varying global vector.
func testVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(3*i+1)) + float64(i%5) - 2
	}
	return v
}

func TestPartitionTilesAndBalances(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 143, 1000} {
		for _, p := range []int{1, 2, 3, 7, 8} {
			if p > n {
				continue
			}
			pt := Partition{N: n, P: p}
			next := 0
			for r := 0; r < p; r++ {
				lo, hi := pt.Range(r)
				if lo != next {
					t.Fatalf("N=%d P=%d: rank %d starts at %d, want %d", n, p, r, lo, next)
				}
				if sz := hi - lo; sz != pt.Len(r) || sz < n/p || sz > n/p+1 {
					t.Fatalf("N=%d P=%d: rank %d owns %d items", n, p, r, sz)
				}
				for i := lo; i < hi; i++ {
					if pt.Owner(i) != r {
						t.Fatalf("N=%d P=%d: Owner(%d) = %d, want %d", n, p, i, pt.Owner(i), r)
					}
				}
				next = hi
			}
			if next != n {
				t.Fatalf("N=%d P=%d: ranges end at %d", n, p, next)
			}
		}
	}
}

// TestNorm2MatchesSerial: the distributed norm agrees with the serial
// reference across every rank count, including non-divisible
// partitions.
func TestNorm2MatchesSerial(t *testing.T) {
	const n = 143
	xg := testVector(n)
	wantNorm := la.Nrm2(xg)
	for _, p := range rankCounts {
		err := comm.Run(testCfg(p), func(c *comm.Comm) error {
			pt := Partition{N: n, P: p}
			lo, hi := pt.Range(c.Rank())
			nrm, err := Norm2(c, xg[lo:hi])
			if err != nil {
				return err
			}
			if rel := math.Abs(nrm-wantNorm) / wantNorm; rel > 1e-12 {
				t.Errorf("p=%d rank %d: Norm2 off by %g", p, c.Rank(), rel)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestScalAxpyAreLocal: the local BLAS-1 helpers compute the right
// values and never touch the network.
func TestScalAxpyAreLocal(t *testing.T) {
	err := comm.Run(testCfg(3), func(c *comm.Comm) error {
		x := []float64{1, 2, 3}
		y := []float64{10, 20, 30}
		before := c.Stats()
		Scal(c, 2, x)
		Axpy(c, -1, x, y)
		after := c.Stats()
		if after.Sends != before.Sends || after.Collective != before.Collective {
			t.Errorf("rank %d: Scal/Axpy communicated", c.Rank())
		}
		for i, want := range []float64{2, 4, 6} {
			if x[i] != want {
				t.Errorf("Scal: x[%d] = %g", i, x[i])
			}
		}
		for i, want := range []float64{8, 16, 24} {
			if y[i] != want {
				t.Errorf("Axpy: y[%d] = %g", i, y[i])
			}
		}
		if after.Flops <= before.Flops {
			t.Error("Scal/Axpy did not charge the cost model")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNorm2ChargesOneReduction: Norm2 is exactly one collective — the
// synchronization-point accounting the RBSP experiments rely on.
func TestNorm2ChargesOneReduction(t *testing.T) {
	err := comm.Run(testCfg(4), func(c *comm.Comm) error {
		v := []float64{1, 2}
		before := c.Stats().Collective
		if _, err := Norm2(c, v); err != nil {
			return err
		}
		if got := c.Stats().Collective - before; got != 1 {
			t.Errorf("rank %d: Norm2 posted %d collectives", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
