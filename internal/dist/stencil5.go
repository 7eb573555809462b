package dist

import (
	"math"

	"repro/internal/comm"
	"repro/internal/la"
)

// Stencil5 is a matrix-free distributed five-point operator on an
// nx×ny interior grid with zero Dirichlet boundaries:
//
//	(A·u)[i,j] = diag·u[i,j] + off·(u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])
//
// The grid is partitioned into row slabs (rank r owns grid rows
// Partition{ny, P}.Range(r)); a local vector is the row-major slab with
// index j·nx + i. Each Apply exchanges one boundary row with each slab
// neighbour.
type Stencil5 struct {
	c         *comm.Comm
	pt        Partition
	nx, ny    int
	jlo, jhi  int
	diag, off float64
	hbelow    []float64 // reusable halo rows
	habove    []float64
}

// NewStencil5 builds rank c.Rank()'s row slab of the nx×ny grid. Every
// rank must call it with the same arguments. Panics if the world has
// more ranks than grid rows.
func NewStencil5(c *comm.Comm, nx, ny int, diag, off float64) *Stencil5 {
	if nx < 1 {
		panic("dist: Stencil5 needs nx >= 1")
	}
	checkWorld(c.Size(), ny, "grid")
	s := &Stencil5{c: c, pt: Partition{N: ny, P: c.Size()}, nx: nx, ny: ny, diag: diag, off: off}
	s.jlo, s.jhi = s.pt.Range(c.Rank())
	s.hbelow = make([]float64, nx)
	s.habove = make([]float64, nx)
	return s
}

// Apply implements Operator: one boundary row to each slab neighbour,
// then the local five-point sweep.
func (s *Stencil5) Apply(x, y []float64) error {
	nr := s.jhi - s.jlo
	nl := nr * s.nx
	la.CheckLen("x", x, nl)
	la.CheckLen("y", y, nl)
	c, rank, p := s.c, s.c.Rank(), s.c.Size()

	if rank > 0 {
		if err := c.Send(rank-1, tagS5Up, x[:s.nx]); err != nil {
			return err
		}
	}
	if rank < p-1 {
		if err := c.Send(rank+1, tagS5Down, x[(nr-1)*s.nx:]); err != nil {
			return err
		}
	}
	var below, above []float64 // nil = Dirichlet zeros beyond the grid
	if rank > 0 {
		if _, err := c.RecvInto(rank-1, tagS5Down, s.hbelow); err != nil {
			return err
		}
		below = s.hbelow
	}
	if rank < p-1 {
		if _, err := c.RecvInto(rank+1, tagS5Up, s.habove); err != nil {
			return err
		}
		above = s.habove
	}

	// Row-sliced sweep: resolve the j-1/j-+1 sources once per row
	// (local row, ghost row, or Dirichlet zero) so the interior bulk
	// runs without per-cell boundary logic.
	nx := s.nx
	for j := 0; j < nr; j++ {
		up, down := below, above // rows j-1 and j+1; nil = zero boundary
		if j > 0 {
			up = x[(j-1)*nx:]
		}
		if j < nr-1 {
			down = x[(j+1)*nx:]
		}
		row := x[j*nx : (j+1)*nx]
		out := y[j*nx : (j+1)*nx]
		for i := 0; i < nx; i++ {
			t := 0.0
			if i > 0 {
				t += row[i-1]
			}
			if i < nx-1 {
				t += row[i+1]
			}
			if up != nil {
				t += up[i]
			}
			if down != nil {
				t += down[i]
			}
			out[i] = s.diag*row[i] + s.off*t
		}
	}
	s.c.Compute(6 * float64(nl))
	return nil
}

// LocalLen implements Operator.
func (s *Stencil5) LocalLen() int { return (s.jhi - s.jlo) * s.nx }

// GlobalLen implements Operator.
func (s *Stencil5) GlobalLen() int { return s.nx * s.ny }

// NormInf implements Operator: the exact global max absolute row sum —
// |diag| plus |off| per existing neighbour of the best-connected cell.
func (s *Stencil5) NormInf() float64 {
	neighbours := min(s.nx-1, 2) + min(s.ny-1, 2)
	return math.Abs(s.diag) + float64(neighbours)*math.Abs(s.off)
}
