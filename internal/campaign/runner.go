package campaign

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/precond"
	"repro/internal/problems"
	"repro/internal/srp"
)

// ftgmresInnerIters is the fixed inner budget per outer step — the
// paper's fixed-budget unreliable phase (§III-D).
const ftgmresInnerIters = 10

// solve runs the named solver on this rank's slab b of the right-hand
// side and returns the rank's slab of the solution, the solve's Stats
// and ftgmres's count of rejected inner results (0 for the others). op
// is the operator the solver iterates on and m the preconditioner (nil
// for none), both consulting the rank's fault injector under any fault
// model. Communication errors (rank death) propagate unchanged so the
// caller can apply its global-restart policy.
//
// For ftgmres, op is the reliable outer operator and m preconditions
// the unreliable inner solve, whose operator is bound here on the same
// layout and injector (faults, nil for a fault-free cell). The cell's
// faults so land at the same sites as for the plain solvers — bitflip
// corrupts the inner operator's SpMV outputs, faulty-precond only the
// inner preconditioner's outputs, and a rank kill counts inner and
// outer applies alike — and flips stay *inside* the low-reliability
// phase, which is exactly the configuration the paper argues survives
// them.
func solve(c *comm.Comm, spec *Spec, solver string, op dist.Operator, m krylov.DistPreconditioner, b []float64, layout *dist.Layout, faults *fault.Injector) ([]float64, krylov.Stats, int, error) {
	opts := krylov.DistOptions{Tol: spec.Tol, MaxIter: spec.MaxIter}
	gmres := krylov.DistGMRESOptions{Restart: 30, Tol: spec.Tol, MaxIter: spec.MaxIter, Precon: m}
	var x []float64
	var st krylov.Stats
	var err error
	switch solver {
	case SolverCG:
		x, st, err = krylov.DistCG(c, op, b, nil, opts)
	case SolverPCG:
		x, st, err = krylov.DistPCG(c, op, m, b, nil, opts)
	case SolverPipelinedPCG:
		x, st, err = krylov.DistPipelinedPCG(c, op, m, b, nil, opts)
	case SolverGMRES:
		x, st, err = krylov.DistGMRES(c, op, b, nil, gmres)
	case SolverFGMRES:
		x, st, err = krylov.DistFGMRES(c, op, b, nil, gmres)
	case SolverFTGMRES:
		faulty := &dist.Faulty{Inner: layout.Bind(c), Faults: faults}
		res, err := srp.DistFTGMRESPreconditioned(c, op, faulty, m, b, srp.Options{
			InnerIters: ftgmresInnerIters, Tol: spec.Tol, MaxOuter: max(spec.MaxIter/ftgmresInnerIters, 10),
		})
		return res.X, res.Stats, res.InnerDiscards, err
	default:
		return nil, krylov.Stats{}, 0, fmt.Errorf("campaign: unknown solver %q", solver)
	}
	return x, st, 0, err
}

// Problem carries one generated workload: the replicated matrix, a
// manufactured right-hand side, and — for SPD problems — the exact
// spectral bounds the Chebyshev preconditioner needs. It is shared
// read-only: by every rank of a run, and through a ProblemMemo by
// concurrent runs.
type Problem struct {
	A          *la.CSR
	RHS        []float64
	LMin, LMax float64 // SPD spectral bounds; 0,0 when unavailable

	// layouts memoises A's partition per rank count, so a problem that
	// outlives one run is partitioned once per P, not once per world.
	// Copies of the Problem share it; nil (a Problem not from
	// BuildProblem) partitions on every call.
	layouts *layoutMemo
}

// layoutMemo is a Problem's partitions by rank count. Concurrent runs
// bind the same layouts, hence the mutex; it is held across a first
// build so that two runs never derive the same partition twice.
type layoutMemo struct {
	mu      sync.Mutex
	byRanks map[int]*dist.Layout
}

// layout returns p.A partitioned over the given rank count.
func (p Problem) layout(ranks int) *dist.Layout {
	m := p.layouts
	if m == nil {
		return dist.NewLayout(p.A, ranks)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.byRanks[ranks]
	if !ok {
		l = dist.NewLayout(p.A, ranks)
		m.byRanks[ranks] = l
	}
	return l
}

// BuildProblem generates the named problem on a g×g interior grid.
func BuildProblem(name string, g int) (Problem, error) {
	p := Problem{layouts: &layoutMemo{byRanks: make(map[int]*dist.Layout)}}
	switch name {
	case ProblemPoisson:
		p.A = problems.Poisson2D(g, g)
		p.LMin, p.LMax = problems.AnisoPoisson2DBounds(g, g, 1, 1)
	case ProblemAniso:
		const ex, ey = 25.0, 1.0
		p.A = problems.AnisoPoisson2D(g, g, ex, ey)
		p.LMin, p.LMax = problems.AnisoPoisson2DBounds(g, g, ex, ey)
	case ProblemConvDiff:
		p.A = problems.ConvDiffRot2D(g, g, 40)
	case ProblemHeat:
		// Backward-Euler heat matrix I + ν·L: the implicit time-step
		// operator of the LFLR heat application, SPD with spectrum
		// 1 + ν·λ(L).
		const nu = 0.5
		a := problems.Poisson2D(g, g)
		for i := 0; i < a.Rows; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				a.Val[q] *= nu
				if a.ColIdx[q] == i {
					a.Val[q]++
				}
			}
		}
		p.A = a
		lmin, lmax := problems.AnisoPoisson2DBounds(g, g, 1, 1)
		p.LMin, p.LMax = 1+nu*lmin, 1+nu*lmax
	default:
		return p, fmt.Errorf("campaign: unknown problem %q", name)
	}
	p.RHS, _ = problems.ManufacturedRHS(p.A)
	return p, nil
}

// SetupKey identifies one cacheable preconditioner Setup. The artifact
// of (problem, grid, ranks, precond, rank) is identical for every fault
// model, noise model, seed, replicate and attempt, because Setup is a
// pure function of the assembled matrix and the rank partition — which
// is what makes cross-request caching sound.
type SetupKey struct {
	Problem string
	Grid    int
	Ranks   int
	Precond string
}

// SetupCache shares preconditioner Setup artifacts across runs. Lookup
// returns the artifact for one rank of a key (nil = miss: the rank runs
// its own Setup and offers the export back through Store). Lookup and
// Store are called from the ranks of concurrently executing runs, so
// implementations must be safe for concurrent use; they are
// only consulted for precond.Cacheable families, so a cache's hit/miss
// counters never see the uncacheable ones.
type SetupCache interface {
	Lookup(k SetupKey, rank int) *precond.Artifact
	Store(k SetupKey, rank int, a *precond.Artifact)
}

// ExecEnv is the optional execution environment of one run — what an
// embedding service (internal/service) uses to reuse assembly work
// across requests and to observe the run. A nil *ExecEnv or the zero
// value is plain unobserved execution.
type ExecEnv struct {
	// Ledger, when non-nil, aggregates communication activity over
	// every world the run creates.
	Ledger *comm.Ledger
	// Phases, when non-nil, stages the length of every phase span of
	// every rank and attempt in the run (comm.Config.Phases): the
	// per-phase totals of the span events Events would see, without an
	// observer. The harness's restart-recovery annotation is not a
	// world span and is not staged. The run's worlds execute one at a
	// time on the calling goroutine, so a tally serves one run at a
	// time and the caller flushes it when ExecuteRunEnv returns.
	Phases obs.PhaseTally
	// Problems, when non-nil, resolves problem assembly (a cache hook:
	// (*ProblemMemo).Problem is the one both the engine and the solve
	// service use); nil falls back to BuildProblem for every run.
	// Returned problems are shared read-only across runs and ranks.
	// The bench tables also hand in variants of a named family through
	// it (another anisotropy ratio or wind). A resolver that returns a
	// variant must not share a Setups cache: SetupKey names only the
	// family, so a cached artifact would belong to another matrix.
	Problems func(name string, grid int) (Problem, error)
	// Setups, when non-nil, shares preconditioner Setup artifacts
	// across runs. Adopting an artifact charges the same virtual cost
	// as running Setup (see precond.Cacheable), so cached and fresh
	// runs agree bitwise.
	Setups SetupCache
	// Events, when non-nil, receives the run's event stream: harness
	// bookkeeping on rank -1 (run/attempt begin and end, restart,
	// recovery), rank 0's iterations and inner discards, and from the
	// rank that caused them fault injections, rank kills, setup-cache
	// hits and misses and every phase span — the event × rank table in
	// docs/OBSERVABILITY.md. T is run-virtual time, monotone across
	// global-restart attempts; Attempt is stamped; a value JSON cannot
	// carry (a diverged solve's NaN/Inf residual) is clamped to the -1
	// sentinel Record.Relres uses. Events arrive live, one at a time
	// and in a deterministic order within the run (a world runs one
	// rank at a time); a sink shared by concurrently executing runs
	// must still be safe for concurrent use, and none may block for
	// long: the solve's virtual time is unaffected, but its wall-clock
	// time stalls with it. Like the caches, observation never perturbs the
	// solve. An obs.RunTracer's Observe is the recording sink; obs.Tee
	// composes several.
	Events func(obs.Event)
}

// observer returns the observer one attempt's world — and the harness
// around it — emits through: it does the campaign-specific stamping
// (base is the virtual time earlier attempts already charged to the
// run) and forwards to env.Events. Nil without a sink, which keeps an
// unobserved world on its observer-free fast path.
func (env *ExecEnv) observer(base float64, attempt int) emitter {
	sink := env.Events
	if sink == nil {
		return nil
	}
	return func(ev obs.Event) {
		if ev.Rank != 0 && (ev.Name == obs.EventIteration || ev.Name == obs.EventDiscard) {
			// SPMD solvers report progress on every rank; one copy is
			// the run's.
			return
		}
		if ev.Name == obs.EventSpan && base != 0 {
			// Shift both endpoints and re-derive the length: T+Dur then
			// lands on the very float the rank's next event gets as T,
			// which traceq's nesting sweep compares for equality. Adding
			// base to T alone leaves the sum an ulp off every few spans.
			end := base + (ev.T + ev.Dur)
			ev.T += base
			ev.Dur = end - ev.T
		} else {
			ev.T += base
		}
		ev.Attempt = attempt
		if math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0) {
			ev.Value = -1
		}
		sink(ev)
	}
}

// emitter is an attempt's observer as the harness uses it.
type emitter func(obs.Event)

// harness emits one run/attempt bookkeeping event on the harness stream
// (rank -1); ev.T is the attempt-local clock. A nil emitter discards it.
func (e emitter) harness(ev obs.Event) {
	if e != nil {
		ev.Rank = -1
		e(ev)
	}
}

// buildPrecond constructs the named preconditioner over the trusted
// operator. Chebyshev applies the *clean* operator internally — faults
// target the solver's operator or the preconditioner output, never
// both through one wrapper. Setup runs under one precond-setup span;
// cacheable families consult the setup cache (nil for none): a hit
// adopts the shared artifact (same virtual cost, no real factorisation
// work), a miss runs Setup and offers the export back.
func buildPrecond(c *comm.Comm, name string, p Problem, trusted dist.Operator, cache SetupCache, key SetupKey) (precond.Preconditioner, error) {
	var m precond.Preconditioner
	switch name {
	case PrecondJacobi:
		m = precond.NewJacobi(c, p.A)
	case PrecondBJILU:
		m = precond.NewBlockJacobiILU(c, p.A)
	case PrecondChebyshev:
		m = precond.NewChebyshev(c, trusted, p.LMin, p.LMax, 6)
	default:
		return nil, fmt.Errorf("campaign: unknown preconditioner %q", name)
	}
	start := c.SpanStart()
	if err := setupOrAdopt(c, m, cache, key); err != nil {
		return nil, err
	}
	c.SpanEnd(obs.PhasePrecondSetup, start)
	return m, nil
}

func setupOrAdopt(c *comm.Comm, m precond.Preconditioner, cache SetupCache, key SetupKey) error {
	ca, ok := m.(precond.Cacheable)
	if cache == nil || !ok {
		return m.Setup()
	}
	if art := cache.Lookup(key, c.Rank()); art != nil {
		if err := ca.Adopt(art); err == nil {
			c.Emit(obs.Event{Name: "setup_cache_hit", Detail: key.Precond})
			return nil
		}
		// A mismatched artifact (stale or corrupt cache entry) falls
		// through to a fresh Setup instead of failing the run.
	}
	if err := ca.Setup(); err != nil {
		return err
	}
	cache.Store(key, c.Rank(), ca.Export())
	c.Emit(obs.Event{Name: "setup_cache_miss", Detail: key.Precond})
	return nil
}

// attemptState is the cross-rank blackboard of one solve attempt: the
// run of its fault plan (nil for a fault-free cell), which records the
// victim's death clock, and rank 0's Stats and inner-discard count. The
// supervisor reads them after World.Wait, so no locking is needed.
type attemptState struct {
	faults   *fault.Run
	st       krylov.Stats
	discards int
}

// runRank is the SPMD body of one solve attempt: wire this rank's
// operator and preconditioner (faults included) and run the cell's
// solver.
func runRank(c *comm.Comm, spec *Spec, cell Cell, p Problem, layout *dist.Layout, att *attemptState, setups SetupCache) error {
	assemble := c.SpanStart()
	trusted := layout.Bind(c)
	// Assembly is replicated and communication-free in this model, so the
	// span is an honest zero-width marker on the timeline.
	c.SpanEnd(obs.PhaseAssemble, assemble)
	var op dist.Operator = trusted
	var faults *fault.Injector
	if att.faults != nil {
		faults = att.faults.Rank(c)
		// ftgmres's outer iteration is its reliable phase: its flips
		// land in the inner stack solve builds.
		op = &dist.Faulty{Inner: trusted, Faults: faults, Reliable: cell.Solver == SolverFTGMRES}
	}

	key := SetupKey{Problem: cell.Problem, Grid: spec.Grid, Ranks: cell.Ranks, Precond: cell.Precond}
	var m krylov.DistPreconditioner
	if cell.Precond != PrecondNone {
		pc, err := buildPrecond(c, cell.Precond, p, trusted, setups, key)
		if err != nil {
			return err
		}
		if faults != nil {
			pc = &precond.Faulty{Inner: pc, Faults: faults}
		}
		m = pc
	}

	// The solution is dropped here and only here: this is where a
	// verifier of the answer reads it.
	_, st, discards, err := solve(c, spec, cell.Solver, op, m, trusted.Scatter(p.RHS), layout, faults)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		att.st, att.discards = st, discards
	}
	return nil
}

// isRankFailure reports whether err is the (wrapped) signature of a
// process death — the errors the rank-kill model's global restart
// recovers from.
func isRankFailure(err error) bool {
	return errors.Is(err, comm.ErrKilled) || errors.Is(err, comm.ErrRankFailed)
}

// noiseModel maps a cell's NoiseSpec onto the machine layer.
func noiseModel(n NoiseSpec) machine.Noise {
	if n.Enabled() {
		return machine.UniformJitter{Frac: n.Frac}
	}
	return machine.NoNoise{}
}

// ExecuteRunEnv executes one (cell, replicate) of the spec and returns
// its Record. It never fails as a function: configuration errors are
// captured in the record's Err field so one broken cell cannot abort a
// campaign. env (nil for plain unobserved execution) supplies the
// ledger, assembly caches and an event sink (see ExecEnv). Results are
// bitwise independent of the environment — caching skips real work,
// never virtual work — which is the property the solve service's
// loadgen test pins.
//
// Under the rank-kill model the run is a checkpoint/restart loop at
// solve granularity: an attempt that loses a rank charges the victim's
// death-time clock as lost work and restarts the solve from scratch
// with a re-drawn failure, up to MaxRestarts times — the global-restart
// baseline the paper's resilient algorithms are measured against.
func ExecuteRunEnv(spec *Spec, cell Cell, rep int, env *ExecEnv) Record {
	if env == nil {
		env = &ExecEnv{}
	}
	rec := cell.Record(spec, rep)
	if emit := env.observer(0, 0); emit != nil {
		// The cell key is the run key without its replicate.
		emit.harness(obs.Event{Name: "run_begin", Detail: rec.Key[:strings.LastIndexByte(rec.Key, '/')]})
	}
	build := BuildProblem
	if env.Problems != nil {
		build = env.Problems
	}
	p, err := build(cell.Problem, spec.Grid)
	if err != nil {
		rec.Err = err.Error()
		env.observer(0, 0).harness(obs.Event{Name: "run_end", Detail: "error"})
		return rec
	}
	layout := p.layout(cell.Ranks)
	maxAttempts := 1
	if cell.Fault.Model == FaultRankKill {
		maxAttempts = spec.MaxRestarts + 1
	}
	var vtime float64
	lastAttempt := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		lastAttempt = attempt
		aseed := attemptSeed(rec.Seed, attempt)
		att := &attemptState{}
		if plan := cell.Fault.plan(aseed); len(plan.Entries) > 0 {
			if att.faults, err = fault.NewRun(plan, cell.Ranks, dist.Partition{N: p.A.Rows, P: cell.Ranks}.Len); err != nil {
				rec.Err = err.Error()
				break
			}
		}
		emit := env.observer(vtime, attempt)
		if attempt > 0 {
			// The previous attempt's restart has taken effect: a fresh
			// world (respawned victim included) resumes the run.
			emit.harness(obs.Event{Name: "recovery", Detail: "respawned world"})
		}
		emit.harness(obs.Event{Name: "attempt_begin"})
		err := comm.Run(comm.Config{
			Ranks: cell.Ranks, Cost: machine.DefaultCostModel(),
			Noise: noiseModel(cell.Noise), Seed: aseed, Ledger: env.Ledger,
			Observer: emit, Phases: env.Phases,
		}, func(c *comm.Comm) error {
			return runRank(c, spec, cell, p, layout, att, env.Setups)
		})
		if err != nil {
			if isRankFailure(err) && cell.Fault.Model == FaultRankKill {
				lost := 0.0 // the victim's clock at its strike
				for _, s := range att.faults.Strikes() {
					if s.Kind == fault.Kill {
						lost = s.Clock
					}
				}
				emit.harness(obs.Event{T: lost, Name: "attempt_end", Detail: "rank-failure"})
				emit.harness(obs.Event{T: lost, Name: "restart", Detail: "global restart"})
				// The recovery span re-labels the whole lost attempt on
				// the harness stream: analytics read it as the
				// fault-to-recovery latency the restart policy charged.
				emit.harness(obs.Event{Name: obs.EventSpan, Dur: lost, Detail: obs.PhaseRestartRecovery})
				vtime += lost // work lost to the failure
				rec.Restarts++
				continue
			}
			rec.Err = err.Error()
			emit.harness(obs.Event{Name: "attempt_end", Detail: "error"})
			break
		}
		st := att.st
		vtime += st.VirtualTime
		rec.Converged = st.Converged
		rec.Iters = st.Iterations
		rec.Discards = att.discards
		rec.Relres = st.FinalResidual
		detail := "converged"
		if !st.Converged {
			detail = "unconverged"
		}
		emit.harness(obs.Event{T: st.VirtualTime, Name: "attempt_end", Iter: st.Iterations, Value: st.FinalResidual, Detail: detail})
		break
	}
	rec.VTime = vtime
	// JSON cannot carry NaN/Inf (a diverged solve's residual): clamp to
	// the -1 sentinel, documented in docs/CAMPAIGNS.md.
	if math.IsNaN(rec.Relres) || math.IsInf(rec.Relres, 0) {
		rec.Relres = -1
	}
	endDetail := "converged"
	switch {
	case rec.Err != "":
		endDetail = "error"
	case !rec.Converged:
		endDetail = "unconverged"
	}
	env.observer(0, lastAttempt).harness(obs.Event{T: vtime, Name: "run_end", Iter: rec.Iters, Value: rec.Relres, Detail: endDetail})
	return rec
}
