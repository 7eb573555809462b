package srp

import (
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/precond"
)

// FaultyDistOp wraps a distributed operator so each rank's local Apply
// result passes through its own fault injector — sustained silent
// corruption on a distributed machine. Each rank must own a distinct
// injector (seed it from the rank id) so fault patterns are independent
// across ranks yet reproducible.
type FaultyDistOp struct {
	Inner    dist.Operator
	Injector *fault.VectorInjector

	// OnInject, when non-nil, fires after each Apply that actually
	// corrupted the output, with the number of flips delivered in that
	// pass. It runs on the rank whose injector fired (fault patterns are
	// per-rank), which is how run traces attribute injections to ranks.
	OnInject func(faults int)
}

// Apply implements dist.Operator.
func (f *FaultyDistOp) Apply(x, y []float64) error {
	if err := f.Inner.Apply(x, y); err != nil {
		return err
	}
	if n := f.Injector.Pass(y); n > 0 && f.OnInject != nil {
		f.OnInject(n)
	}
	return nil
}

// LocalLen implements dist.Operator.
func (f *FaultyDistOp) LocalLen() int { return f.Inner.LocalLen() }

// GlobalLen implements dist.Operator.
func (f *FaultyDistOp) GlobalLen() int { return f.Inner.GlobalLen() }

// NormInf implements dist.Operator (the intended operator's bound).
func (f *FaultyDistOp) NormInf() float64 { return f.Inner.NormInf() }

// DistInner is the unreliable distributed inner solver used as the
// DistFGMRES preconditioner: a fixed-budget distributed GMRES on the
// faulty operator — itself optionally preconditioned by Precon
// (typically a precond.Faulty block-Jacobi, so the whole inner phase
// including its preconditioner runs in low-reliability mode) — with
// reliable sanitisation of the result. It implements
// krylov.DistPreconditioner: to the reliable outer iteration, the whole
// unreliable solve is just one preconditioner application.
type DistInner struct {
	C       *comm.Comm
	Faulty  dist.Operator
	Iters   int
	Restart int
	// Precon, when non-nil, right-preconditions the inner GMRES solves.
	Precon krylov.DistPreconditioner

	Solves   int
	Discards int
}

// ApplyInto implements krylov.DistPreconditioner: one fixed-budget
// unreliable solve, then the reliable analyse-and-use-or-discard step
// of §III-D. Each discard is reported as an obs.EventDiscard carrying
// the rejected solve's ordinal in Iter; the decision is a global
// consensus, so every rank emits it in the same solves.
func (s *DistInner) ApplyInto(r, z []float64) error {
	s.Solves++
	restart := s.Restart
	if restart <= 0 {
		restart = s.Iters
	}
	out, _, err := krylov.DistGMRESInner(s.C, s.Faulty, r, nil, krylov.DistGMRESOptions{
		Restart: restart, MaxIter: s.Iters, Tol: 1e-13, Precon: s.Precon,
	})
	if err != nil {
		return err // communication errors are not sanitisable
	}
	// Local sanitisation must reach a *global* consensus: if any rank's
	// piece is garbage, every rank must discard, or the preconditioner
	// application would be inconsistent across ranks.
	sanitize := s.C.SpanStart()
	var agg [3]float64
	if la.HasNonFinite(out) {
		agg[0] = 1
	}
	agg[1] = la.Dot(out, out)
	agg[2] = la.Dot(r, r)
	s.C.Compute(la.FlopsDot(len(out)) * 2)
	if err := s.C.AllreduceInto(agg[:], comm.OpSum, agg[:]); err != nil {
		return err
	}
	if agg[0] > 0 || (agg[2] > 0 && (agg[1] == 0 || agg[1] > 1e16*agg[2])) {
		s.Discards++
		s.C.SpanEnd(obs.PhaseSanitize, sanitize)
		s.C.Emit(obs.Event{Name: obs.EventDiscard, Iter: s.Solves})
		copy(z, r)
		return nil
	}
	s.C.SpanEnd(obs.PhaseSanitize, sanitize)
	copy(z, out)
	return nil
}

// NewFaultyStack assembles the standard low-reliability inner phase for
// the replicated global matrix a: the operator wrapped with a per-rank
// fault injector, and — when precondition is true — a block-Jacobi
// ILU(0) preconditioner whose outputs are corrupted at the same rate.
// Injectors are seeded from seed plus the rank (operator) and a
// disjoint offset (preconditioner), so fault patterns are independent
// across ranks and across the two injection points yet reproducible.
// Every experiment, example and test that runs FT-GMRES on a corrupted
// stack builds it here, so the wiring cannot drift between them.
func NewFaultyStack(c *comm.Comm, a *la.CSR, rate float64, seed uint64, precondition bool) (dist.Operator, krylov.DistPreconditioner, error) {
	faulty := &FaultyDistOp{
		Inner:    dist.NewCSR(c, a),
		Injector: fault.NewVectorInjector(seed + uint64(c.Rank())).WithRate(rate),
	}
	if !precondition {
		return faulty, nil, nil
	}
	fm := &precond.Faulty{
		Inner:    precond.NewBlockJacobiILU(c, a),
		Injector: fault.NewVectorInjector(seed + 1<<16 + uint64(c.Rank())).WithRate(rate),
	}
	if err := fm.Setup(); err != nil {
		return nil, nil, err
	}
	return faulty, fm, nil
}

// DistFTGMRESResult reports a distributed FT-GMRES solve.
type DistFTGMRESResult struct {
	X             []float64 // local piece
	Stats         krylov.Stats
	InnerSolves   int
	InnerDiscards int
}

// DistFTGMRES is FT-GMRES at scale: a reliable distributed FGMRES outer
// iteration whose preconditioner is a fault-injected distributed GMRES —
// the paper's §III-D architecture on the simulated parallel machine.
// trusted is the clean operator; faulty is the same operator wrapped with
// per-rank injectors (see FaultyDistOp).
func DistFTGMRES(c *comm.Comm, trusted, faulty dist.Operator, b []float64, opts Options) (DistFTGMRESResult, error) {
	return DistFTGMRESPreconditioned(c, trusted, faulty, nil, b, opts)
}

// DistFTGMRESPreconditioned is DistFTGMRES with a preconditioned inner
// phase: innerM right-preconditions the unreliable inner GMRES solves.
// Pass a precond.Faulty-wrapped preconditioner to keep the whole inner
// phase — solve and preconditioner alike — in low-reliability mode; the
// outer iteration's sanitisation consensus is unchanged, so a corrupted
// preconditioner costs discards and extra outer iterations, never
// correctness.
func DistFTGMRESPreconditioned(c *comm.Comm, trusted, faulty dist.Operator, innerM krylov.DistPreconditioner, b []float64, opts Options) (DistFTGMRESResult, error) {
	opts.defaults()
	inner := &DistInner{
		C: c, Faulty: faulty, Iters: opts.InnerIters, Restart: opts.InnerIters,
		Precon: innerM,
	}
	x, st, err := krylov.DistFGMRES(c, trusted, inner, b, nil, krylov.DistGMRESOptions{
		Restart: opts.OuterRestart,
		Tol:     opts.Tol,
		MaxIter: opts.MaxOuter,
	})
	return DistFTGMRESResult{X: x, Stats: st, InnerSolves: inner.Solves, InnerDiscards: inner.Discards}, err
}
