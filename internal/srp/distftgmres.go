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

// DistInner is the unreliable distributed inner solver used as the
// DistFGMRES preconditioner: a fixed-budget distributed GMRES on the
// faulty operator, one restart cycle of Iters steps — itself optionally
// preconditioned by Precon (typically a precond.Faulty block-Jacobi, so
// the whole inner phase including its preconditioner runs in
// low-reliability mode) — with reliable sanitisation of the result. It
// implements krylov.DistPreconditioner: to the reliable outer
// iteration, the whole unreliable solve is just one preconditioner
// application.
type DistInner struct {
	C      *comm.Comm
	Faulty dist.Operator
	Iters  int
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
	out, _, err := krylov.DistGMRESInner(s.C, s.Faulty, r, nil, krylov.DistGMRESOptions{
		Restart: s.Iters, MaxIter: s.Iters, Tol: 1e-13, Precon: s.Precon,
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
// the replicated global matrix a: the operator, and — when precondition
// is true — a block-Jacobi ILU(0) preconditioner, each flipping every
// element of its output with probability rate from its own per-rank
// stream of seed. Nothing in that plan fires once, so each rank runs it
// on its own. Its callers are experiment P3 and this package's tests.
// The campaign's ftgmres cells bind their inner dist.Faulty in the
// campaign executor, on the cell's own fault plan, and experiment F6
// runs the serial FTGMRES.
func NewFaultyStack(c *comm.Comm, a *la.CSR, rate float64, seed uint64, precondition bool) (dist.Operator, krylov.DistPreconditioner, error) {
	plan := fault.Plan{Seed: seed, Entries: []fault.Entry{
		fault.Sustained(fault.SiteApply, rate), fault.Sustained(fault.SitePrecond, rate),
	}}
	run, err := fault.NewRun(plan, c.Size(), dist.Partition{N: a.Rows, P: c.Size()}.Len)
	if err != nil {
		return nil, nil, err
	}
	faults := run.Rank(c)
	faulty := &dist.Faulty{Inner: dist.NewCSR(c, a), Faults: faults}
	if !precondition {
		return faulty, nil, nil
	}
	fm := &precond.Faulty{Inner: precond.NewBlockJacobiILU(c, a), Faults: faults}
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

// DistFTGMRESPreconditioned is FT-GMRES at scale: a reliable
// distributed FGMRES outer iteration whose preconditioner is a
// fault-injected distributed GMRES — the paper's §III-D architecture on
// the simulated parallel machine. trusted is the clean operator; faulty
// is the same operator consulting each rank's fault injector (see
// dist.Faulty). innerM right-preconditions the unreliable inner GMRES
// solves (nil for none). Pass a precond.Faulty-wrapped preconditioner to
// keep the whole inner phase — solve and preconditioner alike — in
// low-reliability mode; the outer iteration's sanitisation consensus is
// unchanged, so a corrupted preconditioner costs discards and extra
// outer iterations, never correctness.
func DistFTGMRESPreconditioned(c *comm.Comm, trusted, faulty dist.Operator, innerM krylov.DistPreconditioner, b []float64, opts Options) (DistFTGMRESResult, error) {
	opts.defaults()
	inner := &DistInner{
		C: c, Faulty: faulty, Iters: opts.InnerIters, Precon: innerM,
	}
	x, st, err := krylov.DistFGMRES(c, trusted, b, nil, krylov.DistGMRESOptions{
		Restart: outerRestart,
		Tol:     opts.Tol,
		MaxIter: opts.MaxOuter,
		Precon:  inner,
	})
	return DistFTGMRESResult{X: x, Stats: st, InnerSolves: inner.Solves, InnerDiscards: inner.Discards}, err
}
