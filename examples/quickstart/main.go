// Quickstart: solve a PDE with GMRES while a skeptical check suite
// watches for silent data corruption — the minimum viable use of this
// library (paper §II-A: "a change in attitude on the part of the
// programmer").
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/problems"
	"repro/internal/skp"
)

func main() {
	// A 2D convection–diffusion problem with a known solution.
	a := problems.ConvDiff2D(32, 32, 20, 10)
	op := krylov.NewCSROp(a)
	rhs, xstar := problems.ManufacturedRHS(a)

	// Pretend the machine is unreliable: one silent exponent-class bit
	// flip will strike the SpMV at iteration 12.
	unreliable, err := krylov.NewFaultyOp(op, fault.Plan{Seed: 2024, Entries: []fault.Entry{fault.OneShot(fault.SiteApply, 12, fault.Exponent)}})
	if err != nil {
		log.Fatal(err)
	}

	// Solve skeptically: every SpMV is validated (non-finite, norm
	// bound, ABFT checksum); detected faults are corrected by recompute.
	res, err := skp.GMRES(unreliable, op, rhs, skp.GMRESConfig{
		Restart: 60, Tol: 1e-9, MaxIter: 400,
		Policy:  skp.Correct,
		ColSums: a.ColSums(),
	})
	if err != nil {
		log.Fatal(err)
	}

	errNorm := la.NrmInf(la.Sub(res.X, xstar))
	fmt.Printf("converged:        %v in %d iterations\n", res.Stats.Converged, res.Stats.Iterations)
	fmt.Printf("faults injected:  %d\n", unreliable.Faults.Run().Flips())
	fmt.Printf("faults detected:  %d (corrected %d)\n",
		res.KernelStats.Detections, res.KernelStats.Corrections)
	fmt.Printf("solution error:   %.3g\n", errNorm)
	if !res.Stats.Converged || errNorm > 1e-6 {
		log.Fatal("quickstart failed: solve did not survive the bit flip")
	}
	fmt.Println("the bit flip was detected, corrected, and the solve stayed on course")
}
