package dist

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
)

// tridiag assembles the serial reference of a Stencil3.
func tridiag(n int, sub, diag, super float64) *la.CSR {
	b := triplets{}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.add(i, i-1, sub)
		}
		b.add(i, i, diag)
		if i < n-1 {
			b.add(i, i+1, super)
		}
	}
	return b.csr(n, n)
}

// fivePoint assembles the serial reference of a Stencil5 (row-major
// index j*nx + i, zero Dirichlet).
func fivePoint(nx, ny int, diag, off float64) *la.CSR {
	b := triplets{}
	id := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			b.add(id(i, j), id(i, j), diag)
			if i > 0 {
				b.add(id(i, j), id(i-1, j), off)
			}
			if i < nx-1 {
				b.add(id(i, j), id(i+1, j), off)
			}
			if j > 0 {
				b.add(id(i, j), id(i, j-1), off)
			}
			if j < ny-1 {
				b.add(id(i, j), id(i, j+1), off)
			}
		}
	}
	return b.csr(nx*ny, nx*ny)
}

// TestStencil3MatchesAssembled: the matrix-free chain operator agrees
// with the assembled tridiagonal matrix to 1e-12 across rank counts,
// for an asymmetric stencil and the degenerate identity.
func TestStencil3MatchesAssembled(t *testing.T) {
	const n = 143
	cases := map[string][3]float64{
		"poisson":   {-1, 2, -1},
		"asym":      {-0.5, 3, -1.25},
		"identity":  {0, 1, 0},
		"advective": {-1, 1.5, 0.25},
	}
	for name, s := range cases {
		a := tridiag(n, s[0], s[1], s[2])
		xg := testVector(n)
		want := a.MatVec(xg, nil)
		scale := la.NrmInf(want) + 1
		for _, p := range rankCounts {
			err := comm.Run(testCfg(p), func(c *comm.Comm) error {
				op := NewStencil3(c, n, s[0], s[1], s[2])
				if op.GlobalLen() != n {
					t.Errorf("%s p=%d: GlobalLen %d", name, p, op.GlobalLen())
				}
				if got, ref := op.NormInf(), a.NormInf(); math.Abs(got-ref) > 1e-15*ref {
					t.Errorf("%s p=%d: NormInf %g want %g", name, p, got, ref)
				}
				lo, hi := Partition{N: n, P: p}.Range(c.Rank())
				if op.LocalLen() != hi-lo {
					t.Errorf("%s p=%d: LocalLen %d want %d", name, p, op.LocalLen(), hi-lo)
				}
				y := make([]float64, op.LocalLen())
				if err := op.Apply(la.Copy(xg[lo:hi]), y); err != nil {
					return err
				}
				full, err := c.Allgather(y)
				if err != nil {
					return err
				}
				for i := range full {
					if math.Abs(full[i]-want[i]) > 1e-12*scale {
						t.Errorf("%s p=%d: differs at %d: %g vs %g", name, p, i, full[i], want[i])
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
		}
	}
}

// TestStencil5MatchesAssembled: the matrix-free five-point operator
// agrees with the assembled matrix across rank counts, on a
// non-square grid with the implicit-heat coefficients.
func TestStencil5MatchesAssembled(t *testing.T) {
	const nx, ny = 7, 23 // ny indivisible by 2, 3, 7 is fine; by 8 too
	const nu = 0.3
	diag, off := 1+4*nu, -nu
	a := fivePoint(nx, ny, diag, off)
	xg := testVector(nx * ny)
	want := a.MatVec(xg, nil)
	scale := la.NrmInf(want) + 1
	for _, p := range rankCounts {
		err := comm.Run(testCfg(p), func(c *comm.Comm) error {
			op := NewStencil5(c, nx, ny, diag, off)
			jlo, jhi := op.jlo, op.jhi
			wlo, whi := Partition{N: ny, P: p}.Range(c.Rank())
			if jlo != wlo || jhi != whi {
				t.Errorf("p=%d rank %d: Rows (%d,%d) want (%d,%d)", p, c.Rank(), jlo, jhi, wlo, whi)
			}
			if op.LocalLen() != (jhi-jlo)*nx || op.GlobalLen() != nx*ny {
				t.Errorf("p=%d: lengths local %d global %d", p, op.LocalLen(), op.GlobalLen())
			}
			if got, ref := op.NormInf(), a.NormInf(); math.Abs(got-ref) > 1e-15*ref {
				t.Errorf("p=%d: NormInf %g want %g", p, got, ref)
			}
			y := make([]float64, op.LocalLen())
			if err := op.Apply(la.Copy(xg[jlo*nx:jhi*nx]), y); err != nil {
				return err
			}
			full, err := c.Allgather(y)
			if err != nil {
				return err
			}
			for i := range full {
				if math.Abs(full[i]-want[i]) > 1e-12*scale {
					t.Errorf("p=%d: differs at %d: %g vs %g", p, i, full[i], want[i])
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestStencilLayoutsAgreeWithPartition: vectors scattered with one
// operator line up with any other operator over the same (N, P) — the
// cross-operator contract Partition centralises.
func TestStencilLayoutsAgreeWithPartition(t *testing.T) {
	const n = 100
	err := comm.Run(testCfg(7), func(c *comm.Comm) error {
		s3 := NewStencil3(c, n, -1, 2, -1)
		pt := Partition{N: n, P: c.Size()}
		lo, hi := pt.Range(c.Rank())
		if s3.LocalLen() != hi-lo {
			t.Errorf("rank %d: Stencil3 local %d, Partition %d", c.Rank(), s3.LocalLen(), hi-lo)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
