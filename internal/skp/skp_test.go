package skp

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/problems"
)

func convDiffOp() (*la.CSR, krylov.Op) {
	a := problems.ConvDiff2D(24, 24, 25, 15)
	return a, krylov.NewCSROp(a)
}

// validateAll runs the standard kernel suite the way CheckedOp does.
func validateAll(op krylov.Op, x, y []float64) error {
	for _, c := range []Check{NonFinite{}, NormBound{ANormInf: op.NormInf()}} {
		if err := c.Validate(x, y); err != nil {
			return err
		}
	}
	return nil
}

// TestSuiteCatchesUpwardExponentFlips: an exponent flip that *sets* a
// high bit inflates the value enormously (or produces Inf/NaN); the
// NonFinite+NormBound pair must catch every such case. Downward flips
// (clearing an exponent bit) shrink the value and are invisible to the
// bound — that asymmetry is measured, not hidden, by experiment T1.
func TestSuiteCatchesUpwardExponentFlips(t *testing.T) {
	_, op := convDiffOp()
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = 1
	}
	clean := op.Apply(x)
	if err := validateAll(op, x, clean); err != nil {
		t.Fatalf("false positive on clean product: %v", err)
	}
	for _, bit := range []int{61, 62} {
		y := la.Copy(clean)
		// Find an element whose chosen exponent bit is 0, so the flip is
		// upward.
		idx := -1
		for i, v := range y {
			if v != 0 && math.Float64bits(v)&(1<<uint(bit)) == 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("no element with bit %d clear", bit)
		}
		y[idx] = fault.FlipBit(y[idx], bit)
		if err := validateAll(op, x, y); err == nil {
			t.Errorf("suite missed upward flip of bit %d (value became %g)", bit, y[idx])
		}
	}
}

func TestNonFiniteCheck(t *testing.T) {
	y := []float64{1, 2, 3}
	if err := (NonFinite{}).Validate(nil, y); err != nil {
		t.Fatalf("false positive: %v", err)
	}
	y[1] = math.NaN()
	if err := (NonFinite{}).Validate(nil, y); err == nil {
		t.Error("missed NaN")
	}
	y[1] = math.Inf(1)
	if err := (NonFinite{}).Validate(nil, y); err == nil {
		t.Error("missed Inf")
	}
}

func TestConservationCheck(t *testing.T) {
	cv := Conservation{Factor: 1.0}
	x := []float64{1, 2, 3}
	y := []float64{2, 2, 2} // sum preserved
	if err := cv.Validate(x, y); err != nil {
		t.Fatalf("false positive: %v", err)
	}
	y = []float64{5, 5, 5}
	if err := cv.Validate(x, y); err == nil {
		t.Error("missed conservation violation")
	}
}

// TestCheckedOpDetectionAndCorrection injects one random exponent-class
// flip per trial. Whenever the suite detects, the corrected output must
// equal the trusted product exactly; and across trials the detection
// rate must be substantial (upward flips are roughly half of random
// exponent flips, and O(1) values turn NaN for the top bit).
func TestCheckedOpDetectionAndCorrection(t *testing.T) {
	_, op := convDiffOp()
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = 0.5 + float64(i%7)
	}
	want := op.Apply(x)

	detected := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		co := NewCheckedOp(exponentFlip(t, op, uint64(100+trial), 0), op, Correct)
		got := co.Apply(x)
		if co.Stats.Detections > 0 {
			detected++
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: detected but correction wrong at %d", trial, i)
				}
			}
		}
	}
	if detected < trials/3 {
		t.Errorf("suite detected only %d/%d exponent flips", detected, trials)
	}
	t.Logf("detection rate: %d/%d", detected, trials)
}

func TestCheckedOpNoFalsePositives(t *testing.T) {
	_, op := convDiffOp()
	co := NewCheckedOp(op, op, DetectOnly)
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = float64(i%11) - 5
	}
	for pass := 0; pass < 50; pass++ {
		co.Apply(x)
	}
	if co.Stats.Detections != 0 {
		t.Errorf("%d false positives in 50 clean applies", co.Stats.Detections)
	}
}

// TestSkepticalGMRESMatchesCleanUnderDetectedFlips is the §III-A
// scenario with long restart cycles (where a corrupted cycle really
// hurts): for seeds whose flip the suite detects, the corrected solve
// must converge in (nearly) the clean iteration count.
func TestSkepticalGMRESMatchesCleanUnderDetectedFlips(t *testing.T) {
	a, op := convDiffOp()
	b, xstar := problems.ManufacturedRHS(a)

	_, clean, err := krylov.GMRES(op, b, nil, krylov.GMRESOptions{Restart: 150, Tol: 1e-9, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Converged {
		t.Fatalf("clean run did not converge")
	}

	detectedSeeds := 0
	for seed := uint64(0); seed < 20; seed++ {
		res, err := GMRES(exponentFlip(t, op, seed, 10), op, b, GMRESConfig{
			Restart: 150, Tol: 1e-9, MaxIter: 600, Policy: Correct, OrthoEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.KernelStats.Detections == 0 {
			continue // downward flip: invisible to the bound, usually harmless
		}
		detectedSeeds++
		if !res.Stats.Converged {
			t.Errorf("seed %d: corrected solve did not converge", seed)
			continue
		}
		if res.Stats.Iterations > clean.Iterations+5 {
			t.Errorf("seed %d: corrected solve took %d iters vs clean %d",
				seed, res.Stats.Iterations, clean.Iterations)
		}
		if e := la.NrmInf(la.Sub(res.X, xstar)); e > 1e-5 {
			t.Errorf("seed %d: solution error %g", seed, e)
		}
	}
	if detectedSeeds < 2 {
		t.Errorf("only %d/20 seeds produced a detectable flip", detectedSeeds)
	}
}

// TestUncheckedGMRESSuffersInLongCycles: without checks, a detectable
// (upward) flip early in a long Arnoldi cycle wastes most of the cycle —
// the silent-corruption cost the paper warns about.
func TestUncheckedGMRESSuffersInLongCycles(t *testing.T) {
	a, op := convDiffOp()
	b, _ := problems.ManufacturedRHS(a)

	_, clean, err := krylov.GMRES(op, b, nil, krylov.GMRESOptions{Restart: 150, Tol: 1e-9, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}

	hurt := 0
	detectable := 0
	for seed := uint64(0); seed < 20; seed++ {
		faulty := exponentFlip(t, op, seed, 10)
		_, st, err := krylov.GMRES(faulty, b, nil,
			krylov.GMRESOptions{Restart: 150, Tol: 1e-9, MaxIter: 600})
		if err != nil {
			t.Fatal(err)
		}
		// Classify the flip after the fact: an "upward" flip inflates the
		// struck value by orders of magnitude (or makes it non-finite).
		ev := faulty.Faults.Run().Strikes()
		if len(ev) == 1 && (math.Abs(ev[0].New) > 1e3*math.Abs(ev[0].Old) || math.IsNaN(ev[0].New) || math.IsInf(ev[0].New, 0)) {
			detectable++
			if !st.Converged || st.Iterations > clean.Iterations+30 {
				hurt++
			}
		}
	}
	if detectable == 0 {
		t.Fatal("no upward flips among 20 seeds")
	}
	if hurt == 0 {
		t.Errorf("none of %d upward flips hurt the unchecked long-cycle solve (clean: %d iters)",
			detectable, clean.Iterations)
	}
	t.Logf("upward flips: %d/20, of which hurt unchecked solve: %d", detectable, hurt)
}

// TestCheckEveryAmortisation: with CheckEvery=k only every k-th apply is
// validated; a fault in a skipped apply passes through (the latency the
// amortisation buys its cheapness with), while faults in checked applies
// are still corrected.
func TestCheckEveryAmortisation(t *testing.T) {
	_, op := convDiffOp()
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	want := op.Apply(x)

	// Fault on the 3rd apply; checks run on applies 4, 8, ... only.
	count := 0
	faulty := exponentFlip(t, op, 11, 2)
	co := NewCheckedOp(faulty, op, Correct)
	co.CheckEvery = 4
	var thirdOutput []float64
	for i := 0; i < 8; i++ {
		y := co.Apply(x)
		count++
		if count == 3 {
			thirdOutput = y
		}
	}
	// The corrupted 3rd apply was unchecked: if the flip was material,
	// the output differs from the truth and Detections stays 0 for it.
	if len(faulty.Faults.Run().Strikes()) > 0 {
		differs := false
		for i := range want {
			if thirdOutput[i] != want[i] {
				differs = true
				break
			}
		}
		if !differs {
			t.Skip("flip was below material effect; latency not exercised")
		}
		// Checked applies (4th, 8th) are clean (one-shot already fired),
		// so no detection is expected — the fault escaped, by design.
		if co.Stats.Detections != 0 {
			t.Errorf("skipped-apply fault should not be detected, got %d", co.Stats.Detections)
		}
	}

	// Fault scheduled ON a checked apply (the 4th): must be corrected.
	co2 := NewCheckedOp(exponentFlip(t, op, 11, 3), op, Correct)
	co2.CheckEvery = 4
	var fourth []float64
	for i := 0; i < 4; i++ {
		fourth = co2.Apply(x)
	}
	if co2.Stats.Detections == 1 {
		for i := range want {
			if fourth[i] != want[i] {
				t.Fatalf("checked-apply fault not corrected at %d", i)
			}
		}
	}
}

func TestOrthoCheckCatchesCorruptBasis(t *testing.T) {
	v := [][]float64{{1, 0, 0}, {0, 1, 0}, {0.5, 0.5, 0}} // v[2] not orthogonal
	if err := orthoCheck(1, v, 1e-8); err == nil {
		t.Error("missed non-orthogonal basis vector")
	}
	good := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if err := orthoCheck(1, good, 1e-8); err != nil {
		t.Errorf("false positive: %v", err)
	}
	notNormal := [][]float64{{1, 0, 0}, {0, 2, 0}}
	if err := orthoCheck(0, notNormal, 1e-8); err == nil {
		t.Error("missed unnormalised vector")
	}
}

// exponentFlip returns op behind a serial plan that flips one
// exponent-class bit of a drawn element of its k-th product (counting
// from 0), drawing from seed's stream.
func exponentFlip(t *testing.T, op krylov.Op, seed uint64, k int) *krylov.FaultyOp {
	t.Helper()
	f, err := krylov.NewFaultyOp(op, fault.Plan{Seed: seed, Entries: []fault.Entry{fault.OneShot(fault.SiteApply, k, fault.Exponent)}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}
