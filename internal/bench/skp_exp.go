package bench

import (
	"fmt"

	"repro/internal/abft"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/problems"
	"repro/internal/skp"
)

// F1 — single bit flips in GMRES's SpMV, unchecked vs skeptical-corrected
// (paper §III-A: an implementation of GMRES "detects and, optionally,
// corrects single bit flips very inexpensively as part of the Arnoldi
// process").
func F1(rc RunCtx) *Table {
	seed := rc.Seed
	t := &Table{
		ID:      "F1",
		Title:   "Skeptical GMRES vs unchecked GMRES under single bit flips",
		Claim:   "§III-A: a silent bit flip can delay or ruin GMRES convergence; skeptical checks detect and correct it cheaply",
		Columns: []string{"bit class", "variant", "converged", "mean iters", "max iters", "mean err", "detected"},
	}
	a := problems.ConvDiff2D(24, 24, 25, 15)
	op := krylov.NewCSROp(a)
	b, xstar := problems.ManufacturedRHS(a)
	const restart, tol, maxIter = 150, 1e-9, 600
	const trials = 25

	_, clean, err := krylov.GMRES(op, b, nil, krylov.GMRESOptions{Restart: restart, Tol: tol, MaxIter: maxIter})
	if err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("clean run: %d iterations to %.0e", clean.Iterations, tol))
	}

	for _, class := range []fault.BitClass{fault.Exponent, fault.MantissaHigh, fault.MantissaLow} {
		for _, skeptical := range []bool{false, true} {
			conv, detect := 0, 0
			sumIters, maxIters := 0, 0
			sumErr := 0.0
			for trial := 0; trial < trials; trial++ {
				faulty, err := krylov.NewFaultyOp(op, fault.Plan{Seed: seed + uint64(trial), Entries: []fault.Entry{fault.OneShot(fault.SiteApply, 10, class)}})
				if err != nil {
					continue
				}
				var st krylov.Stats
				var x []float64
				if skeptical {
					res, err := skp.GMRES(faulty, op, b, skp.GMRESConfig{
						Restart: restart, Tol: tol, MaxIter: maxIter,
						Policy: skp.Correct, OrthoEvery: 8,
						ColSums: a.ColSums(),
					})
					if err != nil {
						continue
					}
					st, x = res.Stats, res.X
					if res.KernelStats.Detections > 0 || res.SolverDetections > 0 {
						detect++
					}
				} else {
					x, st, _ = krylov.GMRES(faulty, b, nil, krylov.GMRESOptions{Restart: restart, Tol: tol, MaxIter: maxIter})
				}
				if st.Converged {
					conv++
				}
				sumIters += st.Iterations
				if st.Iterations > maxIters {
					maxIters = st.Iterations
				}
				sumErr += la.NrmInf(la.Sub(x, xstar))
			}
			name := "unchecked"
			if skeptical {
				name = "skeptical"
			}
			t.AddRow(class.String(), name, pct(conv, trials),
				f(float64(sumIters)/trials), fmt.Sprint(maxIters),
				f(sumErr/trials), pct(detect, trials))
		}
	}
	t.Notes = append(t.Notes,
		"one flip injected into the SpMV result at iteration 10; restart length 150 so a corrupted cycle is expensive",
		"skeptical suite: non-finite + norm bound + ABFT checksum (catches both flip directions), Correct policy",
		"undetected mantissa-low flips cost nothing — exactly the paper's 'harmless error' case")
	return t
}

// T1 — the detection matrix: per-check detection and false-positive
// rates, and check overhead (paper §II-A: checks are "very low cost").
func T1(rc RunCtx) *Table {
	seed := rc.Seed
	t := &Table{
		ID:      "T1",
		Title:   "Skeptical check suite: detection rate, false positives, overhead",
		Claim:   "§II-A: simple invariant checks detect many SDC events at very low cost",
		Columns: []string{"bit class", "non-finite", "norm-bound", "checksum", "any", "overhead"},
	}
	a := problems.ConvDiff2D(24, 24, 25, 15)
	op := krylov.NewCSROp(a)
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = 0.5 + float64(i%7)
	}
	const trials = 200
	nf := skp.NonFinite{}
	nb := skp.NormBound{ANormInf: op.NormInf()}
	ck := skp.Checksum{ColSums: a.ColSums()}

	// Check cost relative to the SpMV: non-finite is one O(n) pass, the
	// norm bound two, the checksum three (sum + dot), against the 2·nnz
	// flops of the SpMV. For 5-point stencils this is a visible fraction;
	// it shrinks with operator density and can be amortised by checking
	// every k-th product.
	overhead := float64(6*op.Size()) / (2 * float64(a.NNZ()))

	for _, class := range []fault.BitClass{fault.Sign, fault.Exponent, fault.MantissaHigh, fault.MantissaLow, fault.AnyBit} {
		var hits [4]int // non-finite, norm-bound, checksum, any
		for trial := 0; trial < trials; trial++ {
			faulty, err := krylov.NewFaultyOp(op, fault.Plan{Seed: seed + uint64(trial)*7919, Entries: []fault.Entry{fault.OneShot(fault.SiteApply, 0, class)}})
			if err != nil {
				continue
			}
			y := faulty.Apply(x)
			dNF, dNB, dCK := nf.Validate(x, y) != nil, nb.Validate(x, y) != nil, ck.Validate(x, y) != nil
			for i, hit := range []bool{dNF, dNB, dCK, dNF || dNB || dCK} {
				if hit {
					hits[i]++
				}
			}
		}
		t.AddRow(class.String(), pct(hits[0], trials), pct(hits[1], trials), pct(hits[2], trials),
			pct(hits[3], trials), fmt.Sprintf("%.1f%%", 100*overhead))
	}
	// False positives measured on clean products.
	falsePos := 0
	for trial := 0; trial < trials; trial++ {
		y := op.Apply(x)
		if nf.Validate(x, y) != nil || nb.Validate(x, y) != nil || ck.Validate(x, y) != nil {
			falsePos++
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("false positives on %d clean products: %d", trials, falsePos),
		"overhead = check flops / SpMV flops (two O(n) passes vs 2·nnz)",
		"mantissa-low flips are mostly undetected AND mostly harmless — the paper's point about damped errors")
	return t
}

// F7 — Huang–Abraham checksummed matrix multiply (paper §III-A / ref [4]:
// "many existing ABFT algorithms can be implemented using a skeptical
// algorithm programming approach").
func F7(rc RunCtx) *Table {
	seed := rc.Seed
	t := &Table{
		ID:      "F7",
		Title:   "ABFT checksummed MatMul: detection, correction, overhead",
		Claim:   "§III-A: checksum metadata both detects anomalies and recovers state",
		Columns: []string{"N", "flips detected", "located", "corrected OK", "overhead(flops)"},
	}
	rng := machine.NewRNG(seed)
	for _, n := range []int{32, 64, 128, 256} {
		a := la.RandomDense(n, n, rng.Float64)
		b := la.RandomDense(n, n, rng.Float64)
		want := a.MatMul(b)
		const trials = 40
		detected, located, correctOK := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			bit := 52 + rng.Intn(11) // exponent-class flips: the harmful ones
			inject := func(cf *la.Dense) {
				cf.Set(i, j, fault.FlipBit(cf.At(i, j), bit))
			}
			got, rep := abft.Checked(a, b, inject, 0)
			if rep.Detected {
				detected++
			}
			if rep.Located {
				located++
			}
			if rep.Corrected && got.Equal(want, 1e-7*float64(n)) {
				correctOK++
			}
		}
		// Augmented product is (n+1)×(n+1)×n vs n³.
		ovh := (float64(n+1)*float64(n+1) - float64(n)*float64(n)) / (float64(n) * float64(n))
		t.AddRow(fmt.Sprint(n), pct(detected, trials), pct(located, trials),
			pct(correctOK, trials), fmt.Sprintf("%.1f%%", 100*ovh))
	}
	t.Notes = append(t.Notes,
		"one exponent-class flip per trial, anywhere in the data block",
		"undetected cases are downward flips smaller than the rounding-scaled checksum tolerance",
		"overhead shrinks as 2/N: checksums amortise with scale (Huang & Abraham 1984)")
	return t
}
