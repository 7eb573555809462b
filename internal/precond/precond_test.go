package precond

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/problems"
)

func cfg(p int) comm.Config {
	return comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 1}
}

// runSerial runs fn in a 1-rank world, so the serial unit tests exercise
// the same SPMD code paths the distributed suites use.
func runSerial(t *testing.T, fn func(c *comm.Comm) error) {
	t.Helper()
	if err := comm.Run(cfg(1), fn); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiBasics(t *testing.T) {
	a := la.NewCOO(3, 3)
	a.Add(0, 0, 2)
	a.Add(1, 1, 4)
	a.Add(2, 2, 8)
	m := a.ToCSR()
	runSerial(t, func(c *comm.Comm) error {
		j := NewJacobi(c, m)
		z := make([]float64, 3)
		if err := j.ApplyInto([]float64{2, 4, 8}, z); err != ErrNotSetup {
			t.Errorf("before Setup: got %v, want ErrNotSetup", err)
		}
		if err := j.Setup(); err != nil {
			return err
		}
		if err := j.ApplyInto([]float64{2, 4, 8}, z); err != nil {
			return err
		}
		for i, v := range z {
			if math.Abs(v-1) > 1e-15 {
				t.Errorf("z[%d] = %g, want 1", i, v)
			}
		}
		if j.Flops() != 3 {
			t.Errorf("flops %g, want 3", j.Flops())
		}
		zf, err := j.Apply([]float64{4, 8, 16})
		if err != nil {
			return err
		}
		if zf[0] != 2 || zf[1] != 2 || zf[2] != 2 {
			t.Errorf("Apply gave %v", zf)
		}
		return nil
	})
}

func TestJacobiZeroDiagonalIsASetupError(t *testing.T) {
	a := la.NewCOO(2, 2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 1)
	a.Add(1, 0, 1) // no (1,1) entry: zero diagonal
	a.Add(1, 1, 0)
	m := a.ToCSR()
	runSerial(t, func(c *comm.Comm) error {
		j := NewJacobi(c, m)
		if err := j.Setup(); err == nil {
			t.Error("Setup must fail on a zero diagonal")
		}
		return nil
	})
}

// TestBlockJacobiExactOnTridiagonal: ILU(0) of a tridiagonal matrix
// incurs no fill, so the single-rank block solve is the exact LU solve —
// M⁻¹b must reproduce A⁻¹b to rounding.
func TestBlockJacobiExactOnTridiagonal(t *testing.T) {
	a := problems.Poisson1D(64)
	b, xstar := problems.ManufacturedRHS(a)
	runSerial(t, func(c *comm.Comm) error {
		m := NewBlockJacobiILU(c, a)
		if err := m.Setup(); err != nil {
			return err
		}
		z, err := m.Apply(b)
		if err != nil {
			return err
		}
		if e := la.NrmInf(la.Sub(z, xstar)); e > 1e-10 {
			t.Errorf("tridiagonal ILU(0) solve error %g (should be exact LU)", e)
		}
		return nil
	})
}

// TestBlockJacobiReducesResidual: on the 2D operator ILU(0) is not exact,
// but one application must still beat the identity by a wide margin.
func TestBlockJacobiReducesResidual(t *testing.T) {
	a := problems.ConvDiffRot2D(16, 16, 40)
	b, _ := problems.ManufacturedRHS(a)
	runSerial(t, func(c *comm.Comm) error {
		m := NewBlockJacobiILU(c, a)
		if err := m.Setup(); err != nil {
			return err
		}
		z, err := m.Apply(b)
		if err != nil {
			return err
		}
		res := la.Nrm2(la.Sub(b, a.MatVec(z, nil)))
		if ratio := res / la.Nrm2(b); ratio > 0.5 {
			t.Errorf("ILU(0) residual ratio %g, want < 0.5", ratio)
		}
		return nil
	})
}

// TestBlockJacobiSetupIsRepeatable: Setup must be re-runnable (it
// re-factors from the retained assembly) and give identical factors.
func TestBlockJacobiSetupIsRepeatable(t *testing.T) {
	a := problems.Poisson2D(12, 12)
	b := problems.OnesRHS(a.Rows)
	runSerial(t, func(c *comm.Comm) error {
		m := NewBlockJacobiILU(c, a)
		if err := m.Setup(); err != nil {
			return err
		}
		z1, err := m.Apply(b)
		if err != nil {
			return err
		}
		if err := m.Setup(); err != nil {
			return err
		}
		z2, err := m.Apply(b)
		if err != nil {
			return err
		}
		if e := la.NrmInf(la.Sub(z1, z2)); e != 0 {
			t.Errorf("re-Setup changed the factors: deviation %g", e)
		}
		return nil
	})
}

func TestChebyshevReducesResidual(t *testing.T) {
	const nx, ny = 8, 8
	a := problems.Poisson2D(nx, ny)
	b := problems.OnesRHS(a.Rows)
	// Exact spectral bounds of the 5-point Laplacian on an n×n grid.
	lmin := 4 * (1 - math.Cos(math.Pi/float64(nx+1)))
	lmax := 4 * (1 + math.Cos(math.Pi/float64(nx+1)))
	runSerial(t, func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		ch := NewChebyshev(c, op, lmin, lmax, 8)
		if err := ch.Setup(); err != nil {
			return err
		}
		z, err := ch.Apply(b)
		if err != nil {
			return err
		}
		res := la.Nrm2(la.Sub(b, a.MatVec(z, nil)))
		if ratio := res / la.Nrm2(b); ratio > 0.25 {
			t.Errorf("degree-8 Chebyshev residual ratio %g, want < 0.25", ratio)
		}
		return nil
	})
}

func TestChebyshevRejectsBadBounds(t *testing.T) {
	a := problems.Poisson1D(8)
	runSerial(t, func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		if err := NewChebyshev(c, op, -1, 2, 3).Setup(); err == nil {
			t.Error("negative LambdaMin must fail Setup")
		}
		if err := NewChebyshev(c, op, 2, 1, 3).Setup(); err == nil {
			t.Error("inverted bounds must fail Setup")
		}
		if err := NewChebyshev(c, op, 1, 2, 0).Setup(); err == nil {
			t.Error("degree 0 must fail Setup")
		}
		return nil
	})
}

func TestFaultyWrapperInjectsAndDelegates(t *testing.T) {
	a := problems.Poisson1D(32)
	b := problems.OnesRHS(a.Rows)
	runSerial(t, func(c *comm.Comm) error {
		clean := NewBlockJacobiILU(c, a)
		// Corrupt every element of every application.
		run, err := fault.NewRun(fault.Plan{Seed: 3, Entries: []fault.Entry{fault.Sustained(fault.SitePrecond, 1)}}, 1,
			func(int) int { return a.Rows })
		if err != nil {
			return err
		}
		f := &Faulty{Inner: NewBlockJacobiILU(c, a), Faults: run.Rank(c)}
		if err := clean.Setup(); err != nil {
			return err
		}
		if err := f.Setup(); err != nil {
			return err
		}
		if f.Flops() != clean.Flops() {
			t.Errorf("Flops not delegated: %g vs %g", f.Flops(), clean.Flops())
		}
		zc, err := clean.Apply(b)
		if err != nil {
			return err
		}
		zf, err := f.Apply(b)
		if err != nil {
			return err
		}
		if la.NrmInf(la.Sub(zc, zf)) == 0 {
			t.Error("rate-1 injector left the application untouched")
		}
		if run.Flips() == 0 {
			t.Error("no fault events recorded")
		}
		return nil
	})
}

func TestIdentity(t *testing.T) {
	var id Identity
	if err := id.Setup(); err != nil {
		t.Fatal(err)
	}
	r := []float64{1, 2, 3}
	z := make([]float64, 3)
	if err := id.ApplyInto(r, z); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if z[i] != r[i] {
			t.Fatalf("identity mangled element %d", i)
		}
	}
	if id.Flops() != 0 {
		t.Error("identity should be free")
	}
}
