package precond

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/obs"
)

// BlockJacobi is the per-rank block-Jacobi preconditioner: rank r
// factors the diagonal block A[lo:hi, lo:hi] of its owned row range
// with ILU(0) (incomplete LU on the block's own sparsity pattern) and
// each application solves L·U·z = r by substitution. Couplings to rows
// owned by other ranks are dropped — that truncation is exactly what
// makes every application communication-free, and what degrades the
// preconditioner gracefully as ranks are added.
//
// For a tridiagonal block ILU(0) incurs no fill and the block solve is
// exact; for the 2D PDE operators in internal/problems it is the
// classic strong-but-cheap middle ground between Jacobi and a direct
// block solve.
type BlockJacobi struct {
	c *comm.Comm
	n int // block dimension = local row count

	// Local diagonal block in CSR with columns remapped to [0, n).
	rowPtr  []int
	colIdx  []int
	orig    []float64   // assembled block values (kept so Setup can re-run)
	val     []float64   // after Setup: strict lower = L (unit diag), rest = U
	diagPtr []int       // position of the diagonal entry in each row
	runs    []la.RowRun // the block pattern's row runs, which the sweeps walk

	y          []float64 // forward-substitution scratch
	setup      bool
	setupFlops float64 // virtual cost the factorisation charged (for Adopt)
}

// NewBlockJacobiILU extracts this rank's diagonal block from the
// replicated global matrix a. Call Setup to factor it before use.
// Panics if a is not square or a row has no diagonal entry (the PDE
// assemblies here always store the diagonal).
func NewBlockJacobiILU(c *comm.Comm, a *la.CSR) *BlockJacobi {
	if a.Rows != a.Cols {
		panic("precond: BlockJacobi needs a square matrix")
	}
	pt := dist.Partition{N: a.Rows, P: c.Size()}
	lo, hi := pt.Range(c.Rank())
	n := hi - lo
	b := &BlockJacobi{c: c, n: n, rowPtr: make([]int, n+1), diagPtr: make([]int, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		g := lo + i
		diagSeen := false
		for q := a.RowPtr[g]; q < a.RowPtr[g+1]; q++ {
			j := a.ColIdx[q]
			if j < lo || j >= hi {
				continue // off-block coupling: dropped, another rank's row range
			}
			if j == g {
				diagSeen = true
				b.diagPtr[i] = len(b.colIdx)
			}
			b.colIdx = append(b.colIdx, j-lo)
			b.orig = append(b.orig, a.Val[q])
		}
		if !diagSeen {
			panic(fmt.Sprintf("precond: row %d has no stored diagonal", g))
		}
		b.rowPtr[i+1] = len(b.colIdx)
	}
	b.runs = la.RowRuns(b.rowPtr, b.colIdx)
	return b
}

// Setup implements Preconditioner: runs the in-place ILU(0)
// factorisation of the local block. The factors live on the block's own
// sparsity pattern — no fill-in is created — so setup is O(nnz·row
// width) and reliably cheap for the stencil-bandwidth matrices here.
// Setup factors into fresh storage, so re-running it can never mutate
// factors previously shared through Export.
func (b *BlockJacobi) Setup() error {
	b.val = make([]float64, len(b.orig))
	copy(b.val, b.orig)
	b.setup = false
	// pos maps a column index to its position in the current row
	// (-1 = not present), the standard sparse-ILU scratch.
	pos := make([]int, b.n)
	for i := range pos {
		pos[i] = -1
	}
	flops := 0.0
	for i := 0; i < b.n; i++ {
		lo, hi := b.rowPtr[i], b.rowPtr[i+1]
		for q := lo; q < hi; q++ {
			pos[b.colIdx[q]] = q
		}
		for q := lo; q < hi && b.colIdx[q] < i; q++ {
			k := b.colIdx[q]
			pivot := b.val[b.diagPtr[k]]
			if pivot == 0 {
				for qq := lo; qq < hi; qq++ {
					pos[b.colIdx[qq]] = -1
				}
				return fmt.Errorf("precond: ILU(0) zero pivot at local row %d", k)
			}
			lik := b.val[q] / pivot
			b.val[q] = lik
			for s := b.diagPtr[k] + 1; s < b.rowPtr[k+1]; s++ {
				if p := pos[b.colIdx[s]]; p >= 0 {
					b.val[p] -= lik * b.val[s]
					flops += 2
				}
			}
			flops += 1
		}
		for q := lo; q < hi; q++ {
			pos[b.colIdx[q]] = -1
		}
		if b.val[b.diagPtr[i]] == 0 {
			return fmt.Errorf("precond: ILU(0) zero pivot at local row %d", i)
		}
	}
	b.c.Compute(flops)
	b.setupFlops = flops
	b.setup = true
	return nil
}

// ApplyInto implements Preconditioner: solves L·y = r (unit lower
// triangle) then U·z = y over the factored block, run by run. Purely
// local.
func (b *BlockJacobi) ApplyInto(r, z []float64) error {
	if !b.setup {
		return ErrNotSetup
	}
	start := b.c.SpanStart()
	la.CheckLen("r", r, b.n)
	la.CheckLen("z", z, b.n)
	for _, run := range b.runs {
		b.forward(run, r, b.y)
	}
	for k := len(b.runs) - 1; k >= 0; k-- {
		b.backward(b.runs[k], b.y, z)
	}
	b.c.Compute(b.Flops())
	b.c.SpanEnd(obs.PhasePrecondApply, start)
	return nil
}

// forward runs the L·y = r sweep over one row run: row i computes
// y[i] = r[i] − Σ val[q]·y[colIdx[q]] over the entries stored before
// its diagonal, in storage order, reading y at the run's offsets. The
// interior rows of a 5-point stencil — a far neighbour, then the −1
// neighbour — take a loop of their own that keeps the −1 neighbour's
// value, the previous row's result, in a register (prev) instead of
// storing it and loading it back.
func (b *BlockJacobi) forward(run la.RowRun, r, y []float64) {
	lo, hi, w := run.Lo, run.Hi, len(run.Off)
	d := b.diagPtr[lo] - b.rowPtr[lo]
	v := b.val[b.rowPtr[lo]:b.rowPtr[hi]]
	ys, rs := y[lo:hi], r[lo:hi]
	lower := run.Off[:d]
	if d == 2 && lower[1] == -1 {
		yf, prev := y[lo+lower[0]:][:len(ys)], y[lo-1]
		for k := range ys {
			row := v[k*w : k*w+2]
			s := rs[k]
			s -= row[0] * yf[k]
			s -= row[1] * prev
			ys[k] = s
			prev = s
		}
		return
	}
	for k := range ys {
		row := v[k*w : k*w+d]
		s := rs[k]
		for m, o := range lower {
			s -= row[m] * y[lo+k+o]
		}
		ys[k] = s
	}
}

// backward runs the U·z = y sweep over one row run, last row first: row
// i computes z[i] = (y[i] − Σ val[q]·z[colIdx[q]]) / val[diag] over the
// entries stored after its diagonal, in storage order. The 5-point
// interior rows — the +1 neighbour, then a far one — keep the +1
// neighbour's value, the row just solved, in a register (next).
func (b *BlockJacobi) backward(run la.RowRun, y, z []float64) {
	lo, hi, w := run.Lo, run.Hi, len(run.Off)
	d := b.diagPtr[lo] - b.rowPtr[lo]
	v := b.val[b.rowPtr[lo]:b.rowPtr[hi]]
	zs, ys := z[lo:hi], y[lo:hi]
	upper := run.Off[d+1:]
	if len(upper) == 2 && upper[0] == 1 {
		zf, next := z[lo+upper[1]:][:len(zs)], z[hi]
		for k := len(zs) - 1; k >= 0; k-- {
			row := v[k*w+d : k*w+d+3]
			s := ys[k]
			s -= row[1] * next
			s -= row[2] * zf[k]
			next = s / row[0]
			zs[k] = next
		}
		return
	}
	for k := len(zs) - 1; k >= 0; k-- {
		row := v[k*w+d : k*w+w]
		s := ys[k]
		for m, o := range upper {
			s -= row[1+m] * z[lo+k+o]
		}
		zs[k] = s / row[0]
	}
}

// Flops implements Preconditioner: two substitution sweeps touch every
// stored entry once, plus a divide per row.
func (b *BlockJacobi) Flops() float64 { return 2*float64(len(b.val)) + float64(b.n) }
