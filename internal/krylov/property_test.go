package krylov

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/problems"
)

// TestP1EquivalentToMGSOnRandomSystems: across random diagonally
// dominant nonsymmetric systems, p1-GMRES and MGS GMRES must agree on
// the solution — the strongest regression net over the trickiest
// numerics in the repository (the shifted-basis recurrences).
func TestP1EquivalentToMGSOnRandomSystems(t *testing.T) {
	rng := machine.NewRNG(77)
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(80)
		p := 2 + rng.Intn(4)
		// Random sparse diagonally dominant matrix: diag = rowsum + 1.
		b := triplets{}
		rowAbs := make([]float64, n)
		for k := 0; k < 4*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			v := 2*rng.Float64() - 1
			b.add(i, j, v)
			rowAbs[i] += absf(v)
		}
		for i := 0; i < n; i++ {
			b.add(i, i, rowAbs[i]+1)
		}
		a := b.csr(n, n)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = 2*rng.Float64() - 1
		}

		solve := func(pipelined bool) ([]float64, Stats) {
			var sol []float64
			var stats Stats
			err := comm.Run(comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: uint64(trial)}, func(c *comm.Comm) error {
				op := dist.NewCSR(c, a)
				local := op.Scatter(rhs)
				var x []float64
				var st Stats
				var err error
				if pipelined {
					x, st, err = DistP1GMRES(c, op, local, nil, DistGMRESOptions{Restart: 50, Tol: 1e-10, MaxIter: 400})
				} else {
					x, st, err = DistGMRES(c, op, local, nil, DistGMRESOptions{Restart: 50, Tol: 1e-10, MaxIter: 400})
				}
				if err != nil {
					return err
				}
				full, err := op.Gather(x)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					sol, stats = full, st
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return sol, stats
		}
		xm, stm := solve(false)
		xp, stp := solve(true)
		if !stm.Converged || !stp.Converged {
			t.Fatalf("trial %d (n=%d p=%d): converged mgs=%v p1=%v (res %g / %g)",
				trial, n, p, stm.Converged, stp.Converged, stm.FinalResidual, stp.FinalResidual)
		}
		if e := la.NrmInf(la.Sub(xm, xp)); e > 1e-7 {
			t.Errorf("trial %d: p1 deviates from MGS by %g", trial, e)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSolversAgreeOnPoisson2D: CG, GMRES, CGS-1 GMRES, p1-GMRES and
// Chebyshev all solve the same SPD system to the same answer.
func TestSolversAgreeOnPoisson2D(t *testing.T) {
	const nx, ny, p = 12, 16, 3
	a := problems.Poisson2D(nx, ny)
	rhs, xstar := problems.ManufacturedRHS(a)

	for _, name := range []string{"cg", "pipecg", "mgs", "cgs", "p1"} {
		var sol []float64
		err := comm.Run(comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 9}, func(c *comm.Comm) error {
			op := dist.NewCSR(c, a)
			local := op.Scatter(rhs)
			var x []float64
			var err error
			switch name {
			case "cg":
				x, _, err = DistCG(c, op, local, nil, DistOptions{Tol: 1e-10, MaxIter: 600})
			case "pipecg":
				x, _, err = DistPipelinedCG(c, op, local, nil, DistOptions{Tol: 1e-10, MaxIter: 600})
			case "mgs":
				x, _, err = DistGMRES(c, op, local, nil, DistGMRESOptions{Restart: 60, Tol: 1e-10, MaxIter: 600})
			case "cgs":
				x, _, err = DistCGSGMRES(c, op, local, nil, DistGMRESOptions{Restart: 60, Tol: 1e-10, MaxIter: 600})
			case "p1":
				x, _, err = DistP1GMRES(c, op, local, nil, DistGMRESOptions{Restart: 60, Tol: 1e-10, MaxIter: 600})
			}
			if err != nil {
				return err
			}
			full, err := op.Gather(x)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				sol = full
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e := la.NrmInf(la.Sub(sol, xstar)); e > 1e-6 {
			t.Errorf("%s: error %g vs manufactured solution", name, e)
		}
	}
}

// triplets is the tests' builder for scattered patterns: add sums
// duplicate (i, j) entries in insertion order from +0, and csr stores
// each row's entries in ascending column order.
type triplets map[[2]int]float64

func (t triplets) add(i, j int, v float64) { t[[2]int{i, j}] += v }

func (t triplets) csr(rows, cols int) *la.CSR {
	keys := slices.SortedFunc(maps.Keys(t), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	m := &la.CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for _, k := range keys {
		m.ColIdx = append(m.ColIdx, k[1])
		m.Val = append(m.Val, t[k])
		m.RowPtr[k[0]+1]++
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}
