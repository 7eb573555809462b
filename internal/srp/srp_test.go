package srp

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/problems"
)

func testProblem() (krylov.Op, []float64, []float64) {
	a := problems.ConvDiff2D(20, 20, 20, 10)
	b, xstar := problems.ManufacturedRHS(a)
	return krylov.NewCSROp(a), b, xstar
}

// flipRate is the serial plan that flips each element of every product
// with probability rate, drawing from seed's stream.
func flipRate(seed uint64, rate float64) fault.Plan {
	return fault.Plan{Seed: seed, Entries: []fault.Entry{fault.Sustained(fault.SiteApply, rate)}}
}

// TestFTGMRESFaultFree: with no faults FT-GMRES is just FGMRES with an
// inner GMRES preconditioner and must converge fast.
func TestFTGMRESFaultFree(t *testing.T) {
	op, b, xstar := testProblem()
	res, err := FTGMRES(op, fault.Plan{}, b, Options{InnerIters: 20, Tol: 1e-9, MaxOuter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("fault-free FT-GMRES did not converge: %g", res.Stats.FinalResidual)
	}
	if e := la.NrmInf(la.Sub(res.X, xstar)); e > 1e-6 {
		t.Errorf("solution error %g", e)
	}
	if res.Stats.Iterations > 15 {
		t.Errorf("inner-preconditioned solve took %d outer iterations", res.Stats.Iterations)
	}
}

// TestFTGMRESConvergesUnderFaults is the §III-D claim: reliable outer +
// faulty inner still converges to the true solution.
func TestFTGMRESConvergesUnderFaults(t *testing.T) {
	for _, rate := range []float64{1e-4, 1e-3} {
		op, b, xstar := testProblem()
		res, err := FTGMRES(op, flipRate(42, rate), b, Options{InnerIters: 20, Tol: 1e-8, MaxOuter: 60})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Converged {
			t.Errorf("rate %g: FT-GMRES did not converge (res %g, faults %d)",
				rate, res.Stats.FinalResidual, res.FaultsInjected)
			continue
		}
		if res.FaultsInjected == 0 {
			t.Errorf("rate %g: no faults injected — test is vacuous", rate)
		}
		if e := la.NrmInf(la.Sub(res.X, xstar)); e > 1e-5 {
			t.Errorf("rate %g: solution error %g", rate, e)
		}
	}
}

// TestFTGMRESBeatsUnreliable: at a rate where plain GMRES on the faulty
// operator fails or stalls, FT-GMRES still gets the right answer.
func TestFTGMRESBeatsUnreliable(t *testing.T) {
	const rate = 1e-3
	op, b, xstar := testProblem()

	plain, err := UnreliableGMRES(op, flipRate(9, rate), b, 40, 400, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	plainErr := la.NrmInf(la.Sub(plain.X, xstar))

	res, err := FTGMRES(op, flipRate(9, rate), b, Options{InnerIters: 20, Tol: 1e-8, MaxOuter: 60})
	if err != nil {
		t.Fatal(err)
	}
	ftErr := la.NrmInf(la.Sub(res.X, xstar))

	if !res.Stats.Converged {
		t.Fatalf("FT-GMRES failed at rate %g", rate)
	}
	// The unreliable baseline must be visibly worse: either it claims
	// non-convergence or its answer is further from the truth.
	if plain.Stats.Converged && plainErr <= 10*ftErr {
		t.Errorf("unreliable GMRES unexpectedly fine: conv=%v err=%g vs ft=%g",
			plain.Stats.Converged, plainErr, ftErr)
	}
}

func TestInnerSanitisationDiscardsGarbage(t *testing.T) {
	op, b, _ := testProblem()
	// Exponent flips every pass: inner results will frequently be junk.
	res, err := FTGMRES(op, flipRate(3, 5e-2), b, Options{InnerIters: 10, Tol: 1e-6, MaxOuter: 60})
	if err != nil {
		t.Fatal(err)
	}
	if la.HasNonFinite(res.X) {
		t.Error("sanitisation let non-finite values reach the outer iterate")
	}
	_ = b
}

func TestExpectedTimesShapes(t *testing.T) {
	// At low fault rates, unreliable-with-restart wins; at high rates TMR
	// (3x) beats it — the paper's "even TMR can be much faster" claim.
	const work = 1e6
	lowU, _, lowT, _ := ExpectedTimes(work, 1e-9, 0.05, 1)
	if lowU >= lowT {
		t.Errorf("at low rate unreliable (%g) should beat TMR (%g)", lowU, lowT)
	}
	highU, _, highT, _ := ExpectedTimes(work, 1e-5, 0.05, 1)
	if highU <= highT {
		t.Errorf("at high rate TMR (%g) should beat unreliable (%g)", highT, highU)
	}
	// SRP should beat both all-reliable and all-TMR at moderate rates.
	_, rel, tmr, srp := ExpectedTimes(work, 1e-7, 0.05, 1)
	if srp >= rel || srp >= tmr {
		t.Errorf("SRP mix (%g) should beat all-reliable (%g) and TMR (%g)", srp, rel, tmr)
	}
}

func TestVerifiedRunRestartsOnFaults(t *testing.T) {
	rng := machine.NewRNG(8)
	// With rate*work = 5, almost every attempt fails: expect restarts.
	time, restarts := VerifiedRun(1e5, 5e-5, rng, 1000)
	if restarts == 0 {
		t.Error("expected restarts at high fault rate")
	}
	if time < 1e5 {
		t.Error("time cannot be below one clean pass")
	}
	rng2 := machine.NewRNG(8)
	time2, restarts2 := VerifiedRun(1e5, 0, rng2, 1000)
	if restarts2 != 0 || time2 != 1e5 {
		t.Errorf("fault-free run should be one pass: %g, %d", time2, restarts2)
	}
}

func TestRegionDotThroughRegions(t *testing.T) {
	rng := machine.NewRNG(12)
	a := regionFrom([]float64{1, 2, 3}, rng)
	b := regionFrom([]float64{4, 5, 6}, rng)
	if got := RegionDot(a, b); got != 32 {
		t.Errorf("RegionDot = %g, want 32", got)
	}
}

func regionFrom(v []float64, rng *machine.RNG) *mem.Region {
	r := mem.NewRegion(len(v), mem.Reliable, 0, rng)
	r.CopyIn(v)
	return r
}
