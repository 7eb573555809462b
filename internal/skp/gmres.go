package skp

import (
	"fmt"
	"math"

	"repro/internal/krylov"
	"repro/internal/la"
)

// GMRESResult extends the solver stats with skeptical accounting.
type GMRESResult struct {
	X     []float64
	Stats krylov.Stats
	// KernelStats are the kernel-level (SpMV) check counters.
	KernelStats CheckStats
	// SolverDetections counts solver-level (Arnoldi) check hits.
	SolverDetections int
}

// GMRESConfig configures the skeptical GMRES solver of §III-A: a GMRES
// implementation "that detects and, optionally, corrects single bit
// flips very inexpensively as part of the Arnoldi process".
type GMRESConfig struct {
	Restart int
	Tol     float64
	MaxIter int
	// OrthoEvery spot-checks basis orthogonality every k Arnoldi steps
	// (0 disables; 1 checks every step). Checking occasionally keeps the
	// overhead "very low", per the paper.
	OrthoEvery int
	// ColSums, when non-nil, arms the ABFT checksum check (eᵀA, see
	// la.CSR.ColSums): one extra dot product per SpMV that catches
	// corruption in both directions.
	ColSums []float64
}

// orthoTol is the orthogonality violation threshold: modified
// Gram–Schmidt drifts to ~1e-5 legitimately on moderately conditioned
// problems, while corruption of a stored basis vector (the fault this
// check targets — an SpMV fault is orthogonalised away by MGS and caught
// by the kernel checks instead) produces violations many orders of
// magnitude larger.
const orthoTol = 1e-3

// GMRES runs GMRES over the suspect operator with the skeptical suite
// armed: kernel checks on every SpMV (via CheckedOp) and an Arnoldi-level
// orthogonality spot check. Kernel detections recompute through trusted,
// and solver detections roll the cycle back.
func GMRES(suspect, trusted krylov.Op, b []float64, cfg GMRESConfig) (GMRESResult, error) {
	co := NewCheckedOp(suspect, trusted)
	if cfg.ColSums != nil {
		co.Checks = append(co.Checks, Checksum{ColSums: cfg.ColSums})
	}

	hook := func(j int, v [][]float64, h *la.Dense) error {
		if cfg.OrthoEvery <= 0 || (j+1)%cfg.OrthoEvery != 0 {
			return nil
		}
		if orthoCheck(j, v, orthoTol) != nil {
			return krylov.ErrRestartCycle
		}
		return nil
	}

	x, st, err := krylov.GMRES(co, b, nil, krylov.GMRESOptions{
		Restart:     cfg.Restart,
		Tol:         cfg.Tol,
		MaxIter:     cfg.MaxIter,
		ArnoldiHook: hook,
	})
	res := GMRESResult{X: x, Stats: st, KernelStats: co.Stats, SolverDetections: st.Anomalies}
	return res, err
}

// orthoCheck verifies that the newest basis vector is orthogonal to its
// predecessors and normalised — the global property "implicitly assumed
// to be true during the execution" that §II-A proposes checking.
// Cost: j dot products, amortised by OrthoEvery.
func orthoCheck(j int, v [][]float64, tol float64) error {
	vNew := v[j+1]
	if vNew == nil {
		return nil // happy breakdown: no new vector
	}
	if d := math.Abs(la.Nrm2(vNew) - 1); d > tol {
		return fmt.Errorf("skp: basis vector %d not normalised (|‖v‖-1| = %g)", j+1, d)
	}
	for i := 0; i <= j; i++ {
		if dp := math.Abs(la.Dot(vNew, v[i])); dp > tol {
			return fmt.Errorf("skp: basis vectors %d and %d not orthogonal (|<v,v>| = %g)", j+1, i, dp)
		}
	}
	return nil
}
