package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/precond"
)

var (
	faultNone    = campaign.FaultSpec{Model: campaign.FaultNone}
	faultBitflip = campaign.FaultSpec{Model: campaign.FaultBitflip, Rate: 1e-4}
	noiseUniform = campaign.NoiseSpec{Model: campaign.NoiseUniform, Frac: 0.25}
)

// solveSet is the fixed identity list of one solve workload. Cell
// indices feed campaign.RunSeed, so they are part of each identity:
// every bit-flip identity below was vetted to terminate (see README
// "Known hazards") and must not be renumbered casually.
type solveSet struct {
	name     string
	spec     campaign.Spec
	cells    []campaign.Cell
	expected time.Duration // watchdog's expected wall of one run
	replica  int           // index of the clean gmres/bj-ilu/poisson cell
}

func solveSpec(name string, grid, ranks int) campaign.Spec {
	return campaign.Spec{
		Name: name, Seed: 7,
		// The axis lists only satisfy Validate; cells are explicit.
		Solvers: []string{campaign.SolverGMRES}, Preconds: []string{campaign.PrecondNone},
		Problems: []string{campaign.ProblemPoisson}, Ranks: []int{ranks},
		Faults: []campaign.FaultSpec{faultNone}, Replicates: 1,
		Grid: grid, Tol: 1e-8, MaxIter: 1000, MaxRestarts: 3,
	}
}

func solveCell(index int, solver, prec, problem string, ranks int, f campaign.FaultSpec, nz campaign.NoiseSpec) campaign.Cell {
	return campaign.Cell{Index: index, Solver: solver, Precond: prec, Problem: problem, Ranks: ranks, Fault: f, Noise: nz}
}

func wideSet() *solveSet {
	const p = 64
	none := campaign.NoiseSpec{}
	return &solveSet{
		name: "solve_wide", spec: solveSpec("perf-wide", 24, p), expected: 60 * time.Millisecond, replica: 3,
		cells: []campaign.Cell{
			solveCell(0, campaign.SolverPCG, campaign.PrecondJacobi, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(1, campaign.SolverPCG, campaign.PrecondChebyshev, campaign.ProblemAniso, p, faultNone, none),
			solveCell(2, campaign.SolverGMRES, campaign.PrecondNone, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(3, campaign.SolverGMRES, campaign.PrecondBJILU, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(4, campaign.SolverGMRES, campaign.PrecondBJILU, campaign.ProblemPoisson, p, faultNone, noiseUniform),
			solveCell(5, campaign.SolverFGMRES, campaign.PrecondChebyshev, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(6, campaign.SolverFTGMRES, campaign.PrecondNone, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(7, campaign.SolverFTGMRES, campaign.PrecondBJILU, campaign.ProblemAniso, p, faultNone, none),
		},
	}
}

func deepSet() *solveSet {
	const p = 2
	none := campaign.NoiseSpec{}
	return &solveSet{
		name: "solve_deep", spec: solveSpec("perf-deep", 96, p), expected: 150 * time.Millisecond, replica: 2,
		cells: []campaign.Cell{
			solveCell(0, campaign.SolverPCG, campaign.PrecondChebyshev, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(1, campaign.SolverPCG, campaign.PrecondJacobi, campaign.ProblemAniso, p, faultNone, none),
			solveCell(2, campaign.SolverGMRES, campaign.PrecondBJILU, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(3, campaign.SolverFGMRES, campaign.PrecondChebyshev, campaign.ProblemAniso, p, faultNone, none),
			solveCell(4, campaign.SolverFTGMRES, campaign.PrecondBJILU, campaign.ProblemPoisson, p, faultNone, none),
			solveCell(5, campaign.SolverFTGMRES, campaign.PrecondNone, campaign.ProblemPoisson, p, faultBitflip, none),
			solveCell(6, campaign.SolverFTGMRES, campaign.PrecondBJILU, campaign.ProblemPoisson, p, faultBitflip, none),
			solveCell(7, campaign.SolverFGMRES, campaign.PrecondBJILU, campaign.ProblemPoisson, p, faultBitflip, none),
			// Index 11, not 8: plain GMRES under bit flips usually runs
			// NaN to max_iter (~1 s, 60% of a pass); identity 11 converges
			// in 119 iterations, keeping the cell a tail, not the pass.
			solveCell(11, campaign.SolverGMRES, campaign.PrecondChebyshev, campaign.ProblemAniso, p, faultBitflip, none),
		},
	}
}

// solve is a solve_wide / solve_deep instance: one ExecuteRunEnv at a
// time over the set's cells, in an order the benchmark seed shuffles.
type solve struct {
	set     *solveSet
	order   []int
	refRuns []refRun
	opSeq   int
}

func newSolve(set *solveSet, seed uint64) (*solve, error) {
	runs := make([]campaign.RunRef, len(set.cells))
	for i, c := range set.cells {
		runs[i] = campaign.RunRef{Cell: c}
	}
	s := &solve{set: set, order: stream(seed, "order").Perm(len(set.cells)), refRuns: references(&set.spec, runs, set.expected)}
	for _, r := range s.refRuns {
		clean := r.cell.Fault.Model == campaign.FaultNone
		if r.rec.Err != "" || (clean && (!r.rec.Converged || r.rec.Relres > set.spec.Tol)) {
			return nil, fmt.Errorf("perf: %s reference %s is not a sound solve: %+v", set.name, r.cell.Key(), r.rec)
		}
	}
	return s, nil
}

func (s *solve) close() {}

func (s *solve) inputKeys() []string {
	keys := make([]string, len(s.order))
	for i, c := range s.order {
		keys[i] = s.set.cells[c].RunKey(0)
	}
	return keys
}

func (s *solve) refs() []refRun { return s.refRuns }

func (s *solve) replicaCell() (*campaign.Spec, campaign.Cell) {
	return &s.set.spec, s.set.cells[s.set.replica]
}

func (s *solve) pass(tr *tracer) (passStats, error) {
	ps := passStats{lat: make([]float64, 0, len(s.order))}
	start := time.Now()
	for _, c := range s.order {
		s.opSeq++
		t := time.Now()
		sp := tr.begin("campaign.execute", s.opSeq, 0)
		rec := campaign.ExecuteRunEnv(&s.set.spec, s.set.cells[c], 0, nil)
		tr.end(sp)
		ps.lat = append(ps.lat, time.Since(t).Seconds()*1e3)
		ps.ops++
		if !bytes.Equal(mustJSON(rec), s.refRuns[c].json) {
			ps.failed++
		}
	}
	ps.wall = time.Since(start)
	return ps, nil
}

// timedOp and timedPrec are the replica's decorators: the benchmark's
// own spans around each call into dist and precond, recorded on rank 0
// only (the solves are SPMD-symmetric, and one writer keeps the
// recorder's lock uncontended).
type timedOp struct {
	dist.Operator
	tr         *tracer
	op, parent int
}

func (o *timedOp) Apply(x, y []float64) error {
	sp := o.tr.begin(replicaSpan+"dist.apply", o.op, o.parent)
	err := o.Operator.Apply(x, y)
	o.tr.end(sp)
	return err
}

type timedPrec struct {
	precond.Preconditioner
	tr         *tracer
	op, parent int
}

func (m *timedPrec) ApplyInto(r, z []float64) error {
	sp := m.tr.begin(replicaSpan+"precond.apply", m.op, m.parent)
	err := m.Preconditioner.ApplyInto(r, z)
	m.tr.end(sp)
	return err
}

// replicaSpan prefixes the replica's span names, keeping them apart
// from the workloads' spans of the same layers.
const replicaSpan = "replica/"

// replicaResult is what one replica solve reports.
type replicaResult struct {
	iters     int
	converged bool
	wall      time.Duration
}

// runReplica solves a clean gmres/bj-ilu cell the way campaign's
// runner does, hand-assembled from the layers' public constructors so
// each boundary gets a span: problems.assemble, comm.world{dist.build,
// precond.setup, krylov.solve{dist.apply, precond.apply}}. What
// ExecuteRunEnv adds on top of this is campaign bookkeeping.
func runReplica(tr *tracer, op int, spec *campaign.Spec, cell campaign.Cell) (replicaResult, error) {
	var res replicaResult
	start := time.Now()
	root := tr.begin(replicaSpan+"solve", op, 0)
	sp := tr.begin(replicaSpan+"problems.assemble", op, root)
	p, err := campaign.BuildProblem(cell.Problem, spec.Grid)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	world := tr.begin(replicaSpan+"comm.world", op, root)
	cfg := comm.Config{Ranks: cell.Ranks, Cost: machine.DefaultCostModel(), Seed: campaign.RunSeed(spec.Seed, cell.Index, 0)}
	err = comm.Run(cfg, func(c *comm.Comm) error {
		rtr := tr
		if c.Rank() != 0 {
			rtr = nil
		}
		sp := rtr.begin(replicaSpan+"dist.build", op, world)
		a := dist.NewCSR(c, p.A)
		rtr.end(sp)
		sp = rtr.begin(replicaSpan+"precond.setup", op, world)
		m := precond.NewBlockJacobiILU(c, p.A)
		err := m.Setup()
		rtr.end(sp)
		if err != nil {
			return err
		}
		ks := rtr.begin(replicaSpan+"krylov.solve", op, world)
		_, st, err := krylov.DistGMRES(c, &timedOp{a, rtr, op, ks}, a.Scatter(p.RHS), nil, krylov.DistGMRESOptions{
			Restart: 30, Tol: spec.Tol, MaxIter: spec.MaxIter, Precon: &timedPrec{m, rtr, op, ks},
		})
		rtr.end(ks)
		if c.Rank() == 0 {
			res.iters, res.converged = st.Iterations, st.Converged
		}
		return err
	})
	tr.end(world)
	tr.end(root)
	res.wall = time.Since(start)
	return res, err
}
