package abft

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/la"
	"repro/internal/machine"
)

func randomPair(rng *machine.RNG, m, k, n int) (*la.Dense, *la.Dense) {
	return la.RandomDense(m, k, rng.Float64), la.RandomDense(k, n, rng.Float64)
}

func TestCheckedCleanProduct(t *testing.T) {
	rng := machine.NewRNG(1)
	a, b := randomPair(rng, 12, 9, 15)
	want := a.MatMul(b)
	got, rep := Checked(a, b, nil, 0)
	if rep.Detected {
		t.Fatalf("false positive: %+v", rep)
	}
	if !got.Equal(want, 1e-12) {
		t.Error("checked product differs from plain product")
	}
}

// TestCheckedCorrectsAnyDataElement corrupts every position of the data
// block in turn with a large flip; each must be detected, located, and
// corrected.
func TestCheckedCorrectsAnyDataElement(t *testing.T) {
	rng := machine.NewRNG(2)
	const m, k, n = 6, 5, 7
	a, b := randomPair(rng, m, k, n)
	want := a.MatMul(b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			inject := func(cf *la.Dense) {
				cf.Set(i, j, cf.At(i, j)+1000)
			}
			got, rep := Checked(a, b, inject, 0)
			if !rep.Detected || !rep.Located || !rep.Corrected {
				t.Fatalf("(%d,%d): report %+v", i, j, rep)
			}
			if rep.Row != i || rep.Col != j {
				t.Fatalf("(%d,%d): located (%d,%d)", i, j, rep.Row, rep.Col)
			}
			if !got.Equal(want, 1e-9) {
				t.Fatalf("(%d,%d): correction wrong", i, j)
			}
		}
	}
}

// TestCheckedBitFlips injects random real bit flips; upward flips must be
// detected and corrected, tiny ones may legitimately pass below the
// checksum tolerance.
func TestCheckedBitFlips(t *testing.T) {
	rng := machine.NewRNG(3)
	const m, k, n = 10, 8, 10
	a, b := randomPair(rng, m, k, n)
	want := a.MatMul(b)

	detected, corrected := 0, 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		i, j := rng.Intn(m), rng.Intn(n)
		bit := fault.AnyBit.PickBit(rng)
		var delta float64
		inject := func(cf *la.Dense) {
			old := cf.At(i, j)
			cf.Set(i, j, fault.FlipBit(old, bit))
			delta = math.Abs(cf.At(i, j) - old)
		}
		got, rep := Checked(a, b, inject, 0)
		if rep.Detected {
			detected++
		}
		if rep.Corrected {
			corrected++
			if !got.Equal(want, 1e-8) {
				t.Fatalf("trial %d: corrected product still wrong (delta %g)", trial, delta)
			}
		}
	}
	if detected < trials/3 {
		t.Errorf("detected only %d/%d bit flips", detected, trials)
	}
	if corrected < detected*9/10 {
		t.Errorf("corrected %d of %d detected", corrected, detected)
	}
	t.Logf("bit flips: detected %d/%d, corrected %d", detected, trials, corrected)
}

// TestCheckedChecksumElementCorruption: corrupting a checksum entry (not
// the data block) must be detected but needs no data correction.
func TestCheckedChecksumElementCorruption(t *testing.T) {
	rng := machine.NewRNG(4)
	const m, k, n = 5, 4, 6
	a, b := randomPair(rng, m, k, n)
	want := a.MatMul(b)
	inject := func(cf *la.Dense) {
		cf.Set(2, n, cf.At(2, n)+100) // row-checksum column entry
	}
	got, rep := Checked(a, b, inject, 0)
	if !rep.Detected {
		t.Error("checksum corruption not detected")
	}
	if rep.Corrected {
		t.Error("nothing in the data block needed correction")
	}
	if !got.Equal(want, 1e-12) {
		t.Error("data block should be intact")
	}
}

// TestCheckedTwoCorruptions: two corrupted data elements in different
// rows and columns are detected but cannot be located by single-error
// checksums — the verifier must say so rather than "correct" wrongly.
func TestCheckedTwoCorruptions(t *testing.T) {
	rng := machine.NewRNG(6)
	a, b := randomPair(rng, 8, 6, 9)
	inject := func(cf *la.Dense) {
		cf.Set(1, 2, cf.At(1, 2)+100)
		cf.Set(4, 7, cf.At(4, 7)-50)
	}
	_, rep := Checked(a, b, inject, 0)
	if !rep.Detected {
		t.Fatal("two corruptions not detected")
	}
	if rep.Located || rep.Corrected {
		t.Errorf("double corruption must not be located/corrected as single: %+v", rep)
	}
	if len(rep.BadRows) != 2 || len(rep.BadCols) != 2 {
		t.Errorf("bad rows %v, bad cols %v", rep.BadRows, rep.BadCols)
	}
}

// TestCheckedSameRowCorruptions: two flips in the same row break one row
// checksum and two column checksums — detected, not located.
func TestCheckedSameRowCorruptions(t *testing.T) {
	rng := machine.NewRNG(7)
	a, b := randomPair(rng, 6, 5, 7)
	inject := func(cf *la.Dense) {
		cf.Set(3, 1, cf.At(3, 1)+10)
		cf.Set(3, 5, cf.At(3, 5)+10)
	}
	_, rep := Checked(a, b, inject, 0)
	if !rep.Detected || rep.Corrected {
		t.Errorf("same-row double corruption: %+v", rep)
	}
}

func TestVerifyToleranceScaling(t *testing.T) {
	// Large well-conditioned product: the default tolerance must not
	// false-positive from rounding.
	rng := machine.NewRNG(5)
	a, b := randomPair(rng, 64, 64, 64)
	_, rep := Checked(a, b, nil, 0)
	if rep.Detected {
		t.Errorf("rounding false positive on 64³ product: %+v", rep)
	}
}
