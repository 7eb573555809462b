package bench

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/problems"
	"repro/internal/srp"
)

// The P* experiments instantiate the preconditioning claims layered on
// top of the paper: a real preconditioner accelerates every Krylov path
// the earlier experiments benchmark, and — per §III-D — the whole
// preconditioner can run in low-reliability mode inside FT-GMRES with
// the outer iteration absorbing its faults.
//
// P1, P2 and P4 are lists of fault-free campaign cells, each run through
// campaign.ExecuteRunEnv, so the executor alone opens their worlds and
// builds their preconditioners.

// cellRow runs the fault-free cell (solver, prec, family, p) on a
// grid×grid mesh to tolerance 1e-8 and renders its converged,
// iterations, reductions and virtual-time cells. prob is the table's
// own variant of the family (another anisotropy or wind), handed in
// through ExecEnv.Problems; the family still decides Compatible. The
// reductions are the ledger's collectives per rank: an experiment runs
// its rows one at a time, so the ledger's growth across the call is
// this row's.
func cellRow(rc RunCtx, family string, prob campaign.Problem, grid, p int, solver, prec string, maxIter int) []string {
	none := campaign.FaultSpec{Model: campaign.FaultNone}
	if ok, why := campaign.Compatible(solver, prec, family, none); !ok {
		return []string{"ERR: " + why}
	}
	spec := campaign.Spec{
		Name: "bench-p", Seed: rc.Seed, Solvers: []string{solver}, Preconds: []string{prec},
		Problems: []string{family}, Ranks: []int{p}, Faults: []campaign.FaultSpec{none},
		Replicates: 1, Grid: grid, Tol: 1e-8, MaxIter: maxIter,
	}
	led := rc.Ledger
	if led == nil {
		led = &comm.Ledger{}
	}
	before := led.Snapshot().Stats.Collective
	rec := campaign.ExecuteRunEnv(&spec, spec.Cells()[0], 0, &campaign.ExecEnv{
		Ledger:   led,
		Problems: func(string, int) (campaign.Problem, error) { return prob, nil },
	})
	if rec.Err != "" {
		return []string{"ERR: " + rec.Err}
	}
	reductions := (led.Snapshot().Stats.Collective - before) / p
	return []string{yesNo(rec.Converged), fmt.Sprint(rec.Iters), fmt.Sprint(reductions), f(rec.VTime)}
}

// anisoProblem is AnisoPoisson2D on a g×g mesh with eps ex:1, its
// manufactured right-hand side and its exact spectral bounds.
func anisoProblem(g int, ex float64) campaign.Problem {
	a := problems.AnisoPoisson2D(g, g, ex, 1)
	rhs, _ := problems.ManufacturedRHS(a)
	lmin, lmax := problems.AnisoPoisson2DBounds(g, g, ex, 1)
	return campaign.Problem{A: a, RHS: rhs, LMin: lmin, LMax: lmax}
}

// P1 — DistPCG with a Chebyshev preconditioner vs DistPCG with M = I
// on anisotropic Poisson, where the constant diagonal makes Jacobi a
// placebo and only a real preconditioner (Chebyshev polynomial) buys
// iterations. The baseline row is the pcg/none cell, not the cg cell:
// it takes CG's iterations but pays a third reduction per iteration
// that DistCG does not, so it charges more virtual time than plain CG.
func P1(rc RunCtx) *Table {
	t := &Table{
		ID:      "P1",
		Title:   "DistPCG with Chebyshev preconditioning vs DistPCG with M = I on anisotropic Poisson",
		Claim:   "a real preconditioner cuts iterations and virtual time where diagonal scaling cannot",
		Columns: []string{"eps x/y", "variant", "converged", "iters", "reductions", "virtual time"},
	}
	const p = 4
	g := 24
	ratios := []float64{1, 25, 100}
	if rc.Quick {
		g, ratios = 16, []float64{25}
	}
	rows := []struct{ name, prec string }{
		{"PCG, M = I", campaign.PrecondNone},
		{"PCG+cheb(6)", campaign.PrecondChebyshev},
	}
	for _, ex := range ratios {
		prob := anisoProblem(g, ex)
		// A failed row still renders: an "ERR" cell fails the registry
		// smoke test, so a broken configuration cannot silently vanish
		// from the table.
		for _, r := range rows {
			t.AddRow(append([]string{f(ex), r.name},
				cellRow(rc, campaign.ProblemAniso, prob, g, p, campaign.SolverPCG, r.prec, 3000)...)...)
		}
	}
	t.Notes = append(t.Notes,
		"AnisoPoisson2D has a constant diagonal: Jacobi is exactly a scalar scaling, so Chebyshev is the honest comparison",
		"each Chebyshev application costs 6 halo exchanges and zero reductions — latency-tolerant preconditioning",
		fmt.Sprintf("%dx%d grid on %d ranks, tol 1e-8", g, g, p))
	return t
}

// P2 — preconditioned vs plain GMRES/FGMRES on the recirculating
// convection–diffusion operator.
func P2(rc RunCtx) *Table {
	t := &Table{
		ID:      "P2",
		Title:   "Right-preconditioned DistGMRES/DistFGMRES vs plain GMRES on recirculating convection-diffusion",
		Claim:   "per-rank ILU(0) block-Jacobi cuts nonsymmetric iteration counts several-fold",
		Columns: []string{"wind", "variant", "converged", "iters", "reductions", "virtual time"},
	}
	const p = 4
	g := 24
	winds := []float64{0, 40, 120}
	if rc.Quick {
		g, winds = 16, []float64{40}
	}
	rows := []struct{ name, solver, prec string }{
		{"GMRES", campaign.SolverGMRES, campaign.PrecondNone},
		{"GMRES+bj-ilu", campaign.SolverGMRES, campaign.PrecondBJILU},
		{"FGMRES+bj-ilu", campaign.SolverFGMRES, campaign.PrecondBJILU},
	}
	for _, wind := range winds {
		a := problems.ConvDiffRot2D(g, g, wind)
		rhs, _ := problems.ManufacturedRHS(a)
		prob := campaign.Problem{A: a, RHS: rhs}
		for _, r := range rows {
			t.AddRow(append([]string{f(wind), r.name},
				cellRow(rc, campaign.ProblemConvDiff, prob, g, p, r.solver, r.prec, 1200)...)...)
		}
	}
	t.Notes = append(t.Notes,
		"block-Jacobi drops inter-rank couplings: zero communication per application",
		"fixed-M right preconditioning (GMRES) stores one basis; FGMRES stores two and allows a varying M",
		fmt.Sprintf("%dx%d grid on %d ranks, restart 30, tol 1e-8", g, g, p))
	return t
}

// P3 — the faulty-preconditioner ablation: FT-GMRES whose unreliable
// inner phase is preconditioned by a *fault-injected* block-Jacobi, at
// rising fault rates (§III-D with the preconditioner itself in
// low-reliability mode).
//
// Unlike P1, P2 and P4, P3 opens its own worlds: its fault stack flips
// both the inner operator's and the preconditioner's outputs, and no
// campaign fault model does both; its "inner solves" and "err vs x*"
// columns also need more than a campaign record holds.
func P3(rc RunCtx) *Table {
	t := &Table{
		ID:      "P3",
		Title:   "FT-GMRES with a fault-injected preconditioner in the unreliable inner phase",
		Claim:   "§III-D: corrupting the preconditioner costs discards and outer iterations, never correctness",
		Columns: []string{"fault rate", "inner precond", "converged", "outer iters", "inner solves", "discards", "err vs x*"},
	}
	const p = 4
	nx := 20
	if rc.Quick {
		nx = 14
	}
	a := problems.ConvDiffRot2D(nx, nx, 40)
	rhs, xstar := problems.ManufacturedRHS(a)
	rates := []float64{0, 1e-3, 1e-2}
	if rc.Quick {
		rates = []float64{1e-3}
	}
	for _, rate := range rates {
		for _, withM := range []bool{false, true} {
			var res srp.DistFTGMRESResult
			var errInf float64
			err := comm.Run(rc.cfg(p, nil), func(c *comm.Comm) error {
				trusted := dist.NewCSR(c, a)
				faulty, innerM, err := srp.NewFaultyStack(c, a, rate, rc.Seed+1000, withM)
				if err != nil {
					return err
				}
				r, err := srp.DistFTGMRESPreconditioned(c, trusted, faulty, innerM, trusted.Scatter(rhs), srp.Options{
					InnerIters: 10, Tol: 1e-8, MaxOuter: 60,
				})
				if err != nil {
					return err
				}
				full, err := trusted.Gather(r.X)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					res = r
					errInf = la.NrmInf(la.Sub(full, xstar))
				}
				return nil
			})
			name := "none"
			if withM {
				name = "faulty bj-ilu"
			}
			if err != nil {
				t.AddRow(f(rate), name, "ERR: "+err.Error())
				continue
			}
			t.AddRow(f(rate), name, yesNo(res.Stats.Converged), fmt.Sprint(res.Stats.Iterations),
				fmt.Sprint(res.InnerSolves), fmt.Sprint(res.InnerDiscards), f(errInf))
		}
	}
	t.Notes = append(t.Notes,
		"rate applies independently to the inner operator's SpMV outputs and the preconditioner's outputs, per rank",
		"the preconditioned inner phase reaches the tolerance in fewer outer iterations even while corrupted",
		"sanitisation consensus is global: one rank's garbage inner result discards the application on all ranks")
	return t
}

// P4 — preconditioner choice: communication-free vs polynomial, and how
// block-Jacobi degrades as ranks shrink its blocks.
func P4(rc RunCtx) *Table {
	t := &Table{
		ID:      "P4",
		Title:   "Preconditioner choice on anisotropic Poisson: cost per application vs iterations saved",
		Claim:   "stronger local physics coverage buys iterations; more ranks shrink block-Jacobi's blocks and give some back",
		Columns: []string{"ranks", "precond", "converged", "iters", "reductions", "virtual time"},
	}
	g := 24
	if rc.Quick {
		g = 16
	}
	prob := anisoProblem(g, 25)
	rows := []struct {
		p          int
		name, prec string
	}{
		{4, "none", campaign.PrecondNone},
		{4, "jacobi", campaign.PrecondJacobi},
		{4, "bj-ilu", campaign.PrecondBJILU},
		{4, "cheb(6)", campaign.PrecondChebyshev},
		{1, "bj-ilu", campaign.PrecondBJILU},
		{8, "bj-ilu", campaign.PrecondBJILU},
	}
	if rc.Quick {
		rows = rows[:4]
	}
	for _, r := range rows {
		t.AddRow(append([]string{fmt.Sprint(r.p), r.name},
			cellRow(rc, campaign.ProblemAniso, prob, g, r.p, campaign.SolverFGMRES, r.prec, 2000)...)...)
	}
	t.Notes = append(t.Notes,
		"FGMRES hosts every variant so symmetric and nonsymmetric preconditioners compare on one solver",
		"jacobi on a constant diagonal is a pure scalar scaling — the placebo row",
		"bj-ilu at P=1 is global ILU(0); at P=8 the blocks are an eighth the size and iterations drift up")
	return t
}
