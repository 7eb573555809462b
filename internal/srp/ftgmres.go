// Package srp implements Selective Reliability Programming (paper §II-D)
// and its flagship algorithm, FT-GMRES (§III-D, after the paper's
// reference [13], Bridges, Ferreira, Heroux & Hoemmen): an outer-inner
// solver where the outer flexible-GMRES iteration runs on reliable
// storage and compute, while the inner GMRES "preconditioner" does the
// bulk of the work unreliably. The outer iteration treats whatever the
// inner solve returns as just another preconditioner application —
// analysed, then used or discarded — so inner faults cost extra
// iterations, never correctness.
package srp

import (
	"math"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
)

// InnerSolver is the unreliable inner solve used as the FGMRES
// preconditioner. Each Solve runs a fresh GMRES on the faulty operator,
// one restart cycle of Iters steps; the result is sanitised before it
// is handed to the reliable outer iteration (the "analyse and use or
// discard" step of §III-D).
type InnerSolver struct {
	Faulty krylov.Op // operator with sustained fault injection
	Iters  int       // inner iteration budget per outer step

	// Discards counts inner results rejected by sanitisation.
	Discards int
	// Solves counts inner invocations.
	Solves int
}

// Solve implements krylov.Preconditioner.
func (s *InnerSolver) Solve(r, z []float64) {
	s.Solves++
	out, _, err := krylov.GMRES(s.Faulty, r, nil, krylov.GMRESOptions{
		Restart: s.Iters,
		MaxIter: s.Iters,
		Tol:     1e-13, // run the full budget; outer handles accuracy
	})
	// Reliable sanitisation: a corrupt inner result must not poison the
	// outer Krylov space. Non-finite or absurdly large results are
	// discarded in favour of the identity application (z = r), which
	// keeps the outer iteration valid — merely unpreconditioned for one
	// step.
	if err != nil || la.HasNonFinite(out) {
		s.Discards++
		copy(z, r)
		return
	}
	zn, rn := la.Nrm2(out), la.Nrm2(r)
	if rn > 0 && (zn == 0 || zn > 1e8*rn) {
		s.Discards++
		copy(z, r)
		return
	}
	copy(z, out)
}

// Result carries the FT-GMRES outcome and reliability accounting.
type Result struct {
	X     []float64
	Stats krylov.Stats
	// InnerSolves and InnerDiscards describe the unreliable phase.
	InnerSolves   int
	InnerDiscards int
	// FaultsInjected is the number of bit flips delivered to the inner
	// operator during the solve.
	FaultsInjected int
}

// outerRestart is the outer FGMRES restart length.
const outerRestart = 30

// Options configures FTGMRES.
type Options struct {
	InnerIters int     // inner GMRES iterations per outer step (default 20)
	Tol        float64 // outer relative residual target (default 1e-8)
	MaxOuter   int     // outer iteration cap (default 60)
}

func (o *Options) defaults() {
	if o.InnerIters <= 0 {
		o.InnerIters = 20
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 60
	}
}

// FTGMRES solves A·x = b with the fault-tolerant outer/inner scheme:
// trusted is the reliable operator (used by the outer iteration), and
// faults strikes the inner operator's SpMV outputs (krylov.NewFaultyOp).
// Most flops happen inside the inner solves, i.e. unreliably — exactly
// the paper's "most computation and data are in low-reliability mode".
func FTGMRES(trusted krylov.Op, faults fault.Plan, b []float64, opts Options) (Result, error) {
	opts.defaults()
	faulty, err := krylov.NewFaultyOp(trusted, faults)
	if err != nil {
		return Result{}, err
	}
	inner := &InnerSolver{
		Faulty: faulty,
		Iters:  opts.InnerIters,
	}
	x, st, err := krylov.GMRES(trusted, b, nil, krylov.GMRESOptions{
		Restart: outerRestart,
		Tol:     opts.Tol,
		MaxIter: opts.MaxOuter,
		Precon:  inner,
	})
	return Result{
		X:              x,
		Stats:          st,
		InnerSolves:    inner.Solves,
		InnerDiscards:  inner.Discards,
		FaultsInjected: faulty.Faults.Run().Flips(),
	}, err
}

// UnreliableGMRES is the no-SRP baseline: plain GMRES run entirely on the
// operator faults strikes, the configuration the paper predicts will
// stagnate or silently err as fault rates rise. The error is the plan's
// (krylov.NewFaultyOp); the solver's own are part of the outcome.
func UnreliableGMRES(trusted krylov.Op, faults fault.Plan, b []float64, restart, maxIter int, tol float64) (Result, error) {
	faulty, err := krylov.NewFaultyOp(trusted, faults)
	if err != nil {
		return Result{}, err
	}
	x, st, _ := krylov.GMRES(faulty, b, nil, krylov.GMRESOptions{
		Restart: restart,
		MaxIter: maxIter,
		Tol:     tol,
	})
	return Result{X: x, Stats: st, FaultsInjected: faulty.Faults.Run().Flips()}, nil
}

// costReliable is the access-cost multiplier of fully reliable
// storage and compute (strong ECC, redundant paths) relative to
// unreliable execution; TMR is 3x by construction. The defaults follow
// the paper's observation that "even very expensive approaches such as
// TMR" can win.
const costReliable = 2.0

// ExpectedTimes returns the analytic expected completion times (in
// unreliable-op units) for the four execution strategies of experiment
// T4 on a job of work ops with per-op fault rate λ:
//
//	unreliable+restart: (e^{λW} − 1)/λ·W⁻¹·W = (e^{λW} − 1)/λ  [Daly-style]
//	all-reliable:       costReliable·W  (never faults)
//	all-TMR:            3W              (single faults masked)
//	SRP mix:            costReliable·f·W + (1−f)·W·(1 + overhead·λ·W)
//
// where the SRP overhead term models the extra (outer) iterations the
// algorithm spends absorbing inner faults, per the FT-GMRES measurements.
func ExpectedTimes(work, lambda, fracReliable, srpOverhead float64) (unrel, reliable, tmr, srp float64) {
	if lambda > 0 {
		unrel = (math.Exp(lambda*work) - 1) / lambda
	} else {
		unrel = work
	}
	reliable = costReliable * work
	tmr = 3 * work
	srp = costReliable*fracReliable*work + (1-fracReliable)*work*(1+srpOverhead*lambda*work)
	return unrel, reliable, tmr, srp
}
