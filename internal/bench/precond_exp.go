package bench

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/precond"
	"repro/internal/problems"
	"repro/internal/srp"
)

// The P* experiments instantiate the preconditioning claims layered on
// top of the paper: a real preconditioner accelerates every Krylov path
// the earlier experiments benchmark, and — per §III-D — the whole
// preconditioner can run in low-reliability mode inside FT-GMRES with
// the outer iteration absorbing its faults.

// pcgVariant runs one (preconditioner, solver) configuration of P1 at P
// ranks and reports iterations, reductions, virtual time, convergence.
func pcgVariant(rc RunCtx, p int, a *la.CSR, rhs []float64, mk func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error)) (krylov.Stats, error) {
	var st krylov.Stats
	err := comm.Run(rc.cfg(p, nil), func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		var m krylov.DistPreconditioner
		if mk != nil {
			var err error
			if m, err = mk(c, op); err != nil {
				return err
			}
		}
		_, s, err := krylov.DistPCG(c, op, m, op.Scatter(rhs), nil, krylov.DistOptions{Tol: 1e-8, MaxIter: 3000})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st = s
		}
		return nil
	})
	return st, err
}

// P1 — preconditioned vs plain CG on anisotropic Poisson, where the
// constant diagonal makes Jacobi a placebo and only a real
// preconditioner (Chebyshev polynomial) buys iterations.
func P1(rc RunCtx) *Table {
	t := &Table{
		ID:      "P1",
		Title:   "DistPCG with Chebyshev preconditioning vs plain CG on anisotropic Poisson",
		Claim:   "a real preconditioner cuts iterations and virtual time where diagonal scaling cannot",
		Columns: []string{"eps x/y", "variant", "converged", "iters", "reductions", "virtual time"},
	}
	const p = 4
	nx, ny := 24, 24
	if rc.Quick {
		nx, ny = 16, 16
	}
	ratios := []float64{1, 25, 100}
	if rc.Quick {
		ratios = []float64{25}
	}
	for _, ex := range ratios {
		a := problems.AnisoPoisson2D(nx, ny, ex, 1)
		rhs, _ := problems.ManufacturedRHS(a)
		lmin, lmax := problems.AnisoPoisson2DBounds(nx, ny, ex, 1)

		// A failed variant still contributes a row: an "ERR" cell fails
		// the registry smoke test, so a broken configuration cannot
		// silently vanish from the table.
		plain, err := pcgVariant(rc, p, a, rhs, nil)
		if err != nil {
			t.AddRow(f(ex), "CG", "ERR: "+err.Error())
		} else {
			t.AddRow(f(ex), "CG", yesNo(plain.Converged), fmt.Sprint(plain.Iterations),
				fmt.Sprint(plain.Reductions), f(plain.VirtualTime))
		}
		cheb, err := pcgVariant(rc, p, a, rhs, func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error) {
			m := precond.NewChebyshev(c, op, lmin, lmax, 6)
			return m, m.Setup()
		})
		if err != nil {
			t.AddRow(f(ex), "PCG+cheb(6)", "ERR: "+err.Error())
		} else {
			t.AddRow(f(ex), "PCG+cheb(6)", yesNo(cheb.Converged), fmt.Sprint(cheb.Iterations),
				fmt.Sprint(cheb.Reductions), f(cheb.VirtualTime))
		}
	}
	t.Notes = append(t.Notes,
		"AnisoPoisson2D has a constant diagonal: Jacobi is exactly a scalar scaling, so Chebyshev is the honest comparison",
		"each Chebyshev application costs 6 halo exchanges and zero reductions — latency-tolerant preconditioning",
		fmt.Sprintf("%dx%d grid on %d ranks, tol 1e-8", nx, ny, p))
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
	nx := 24
	if rc.Quick {
		nx = 16
	}
	winds := []float64{0, 40, 120}
	if rc.Quick {
		winds = []float64{40}
	}
	opts := krylov.DistGMRESOptions{Restart: 30, Tol: 1e-8, MaxIter: 1200}
	for _, wind := range winds {
		a := problems.ConvDiffRot2D(nx, nx, wind)
		rhs, _ := problems.ManufacturedRHS(a)
		run := func(variant string, solve func(c *comm.Comm, op *dist.CSR, m *precond.BlockJacobi) (krylov.Stats, error), withM bool) {
			var st krylov.Stats
			err := comm.Run(rc.cfg(p, nil), func(c *comm.Comm) error {
				op := dist.NewCSR(c, a)
				var m *precond.BlockJacobi
				if withM {
					m = precond.NewBlockJacobiILU(c, a)
					if err := m.Setup(); err != nil {
						return err
					}
				}
				s, err := solve(c, op, m)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					st = s
				}
				return nil
			})
			if err != nil {
				t.AddRow(f(wind), variant, "ERR: "+err.Error())
				return
			}
			t.AddRow(f(wind), variant, yesNo(st.Converged), fmt.Sprint(st.Iterations),
				fmt.Sprint(st.Reductions), f(st.VirtualTime))
		}
		run("GMRES", func(c *comm.Comm, op *dist.CSR, _ *precond.BlockJacobi) (krylov.Stats, error) {
			_, s, err := krylov.DistGMRES(c, op, op.Scatter(rhs), nil, opts)
			return s, err
		}, false)
		run("GMRES+bj-ilu", func(c *comm.Comm, op *dist.CSR, m *precond.BlockJacobi) (krylov.Stats, error) {
			o := opts
			o.Precon = m
			_, s, err := krylov.DistGMRES(c, op, op.Scatter(rhs), nil, o)
			return s, err
		}, true)
		run("FGMRES+bj-ilu", func(c *comm.Comm, op *dist.CSR, m *precond.BlockJacobi) (krylov.Stats, error) {
			o := opts
			o.Precon = m
			_, s, err := krylov.DistFGMRES(c, op, op.Scatter(rhs), nil, o)
			return s, err
		}, true)
	}
	t.Notes = append(t.Notes,
		"block-Jacobi drops inter-rank couplings: zero communication per application",
		"fixed-M right preconditioning (GMRES) stores one basis; FGMRES stores two and allows a varying M",
		fmt.Sprintf("%dx%d grid on %d ranks, restart 30, tol 1e-8", nx, nx, p))
	return t
}

// P3 — the faulty-preconditioner ablation: FT-GMRES whose unreliable
// inner phase is preconditioned by a *fault-injected* block-Jacobi, at
// rising fault rates (§III-D with the preconditioner itself in
// low-reliability mode).
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
	nx := 24
	if rc.Quick {
		nx = 16
	}
	const ex, ey = 25.0, 1.0
	a := problems.AnisoPoisson2D(nx, nx, ex, ey)
	rhs, _ := problems.ManufacturedRHS(a)
	lmin, lmax := problems.AnisoPoisson2DBounds(nx, nx, ex, ey)
	opts := krylov.DistGMRESOptions{Restart: 30, Tol: 1e-8, MaxIter: 2000}

	type variant struct {
		p    int
		name string
		mk   func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error)
	}
	variants := []variant{
		{4, "none", nil},
		{4, "jacobi", func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error) {
			m := precond.NewJacobi(c, a)
			return m, m.Setup()
		}},
		{4, "bj-ilu", func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error) {
			m := precond.NewBlockJacobiILU(c, a)
			return m, m.Setup()
		}},
		{4, "cheb(6)", func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error) {
			m := precond.NewChebyshev(c, op, lmin, lmax, 6)
			return m, m.Setup()
		}},
		{1, "bj-ilu", func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error) {
			m := precond.NewBlockJacobiILU(c, a)
			return m, m.Setup()
		}},
		{8, "bj-ilu", func(c *comm.Comm, op *dist.CSR) (krylov.DistPreconditioner, error) {
			m := precond.NewBlockJacobiILU(c, a)
			return m, m.Setup()
		}},
	}
	if rc.Quick {
		variants = variants[:4]
	}
	for _, v := range variants {
		var st krylov.Stats
		err := comm.Run(rc.cfg(v.p, nil), func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			o := opts
			if v.mk != nil {
				var err error
				if o.Precon, err = v.mk(c, op); err != nil {
					return err
				}
			}
			_, s, err := krylov.DistFGMRES(c, op, op.Scatter(rhs), nil, o)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				st = s
			}
			return nil
		})
		if err != nil {
			t.AddRow(fmt.Sprint(v.p), v.name, "ERR: "+err.Error())
			continue
		}
		t.AddRow(fmt.Sprint(v.p), v.name, yesNo(st.Converged), fmt.Sprint(st.Iterations),
			fmt.Sprint(st.Reductions), f(st.VirtualTime))
	}
	t.Notes = append(t.Notes,
		"FGMRES hosts every variant so symmetric and nonsymmetric preconditioners compare on one solver",
		"jacobi on a constant diagonal is a pure scalar scaling — the placebo row",
		"bj-ilu at P=1 is global ILU(0); at P=8 the blocks are an eighth the size and iterations drift up")
	return t
}
