package dist

import (
	"math"

	"repro/internal/comm"
	"repro/internal/la"
)

// Stencil3 is a matrix-free distributed tridiagonal operator on a 1D
// chain of n points with zero Dirichlet boundaries:
//
//	(A·x)[i] = sub·x[i-1] + diag·x[i] + super·x[i+1]
//
// Points are block-partitioned over ranks; each Apply exchanges one
// boundary value with each chain neighbour. Unlike CSR it stores no
// matrix, so weak-scaling sweeps can instantiate worlds of thousands
// of ranks without assembling a global operator per rank.
type Stencil3 struct {
	c                *comm.Comm
	pt               Partition
	lo, hi           int
	n                int
	sub, diag, super float64
	hbuf             [1]float64 // reusable halo landing buffer
}

// NewStencil3 builds rank c.Rank()'s piece of the n-point chain. Every
// rank must call it with the same arguments. Panics if the world has
// more ranks than points.
func NewStencil3(c *comm.Comm, n int, sub, diag, super float64) *Stencil3 {
	checkWorld(c.Size(), n, "chain")
	s := &Stencil3{c: c, pt: Partition{N: n, P: c.Size()}, n: n, sub: sub, diag: diag, super: super}
	s.lo, s.hi = s.pt.Range(c.Rank())
	return s
}

// Apply implements Operator: one boundary value to each neighbour, then
// the local stencil sweep.
func (s *Stencil3) Apply(x, y []float64) error {
	nl := s.hi - s.lo
	la.CheckLen("x", x, nl)
	la.CheckLen("y", y, nl)
	c, rank, p := s.c, s.c.Rank(), s.c.Size()

	// Buffered sends first, then receives: deadlock-free by construction.
	if rank > 0 {
		if err := c.Send(rank-1, tagS3Left, x[:1]); err != nil {
			return err
		}
	}
	if rank < p-1 {
		if err := c.Send(rank+1, tagS3Right, x[nl-1:]); err != nil {
			return err
		}
	}
	left, right := 0.0, 0.0 // Dirichlet zeros outside the global chain
	if rank > 0 {
		if _, err := c.RecvInto(rank-1, tagS3Right, s.hbuf[:]); err != nil {
			return err
		}
		left = s.hbuf[0]
	}
	if rank < p-1 {
		if _, err := c.RecvInto(rank+1, tagS3Left, s.hbuf[:]); err != nil {
			return err
		}
		right = s.hbuf[0]
	}

	for i := 0; i < nl; i++ {
		lv, rv := left, right
		if i > 0 {
			lv = x[i-1]
		}
		if i < nl-1 {
			rv = x[i+1]
		}
		y[i] = s.sub*lv + s.diag*x[i] + s.super*rv
	}
	s.c.Compute(5 * float64(nl))
	return nil
}

// LocalLen implements Operator.
func (s *Stencil3) LocalLen() int { return s.hi - s.lo }

// GlobalLen implements Operator.
func (s *Stencil3) GlobalLen() int { return s.n }

// NormInf implements Operator: the exact global max absolute row sum.
func (s *Stencil3) NormInf() float64 {
	d := math.Abs(s.diag)
	if s.n == 1 {
		return d
	}
	edge := d + math.Max(math.Abs(s.sub), math.Abs(s.super))
	if s.n == 2 {
		return edge
	}
	return math.Max(edge, d+math.Abs(s.sub)+math.Abs(s.super))
}
