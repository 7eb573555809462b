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
	fwd     []sweepStep // the forward sweep's schedule (see schedules)
	bwd     []sweepStep // the backward sweep's schedule

	y          []float64 // forward-substitution scratch
	kern       kernel    // the two sweeps as an Offload job
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
	b.fwd, b.bwd = b.schedules(la.RowRuns(b.rowPtr, b.colIdx))
	b.kern.p = b
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
// triangle) then U·z = y over the factored block, step by step of the
// sweep schedules. Purely local.
func (b *BlockJacobi) ApplyInto(r, z []float64) error {
	if !b.setup {
		return ErrNotSetup
	}
	start := b.c.SpanStart()
	la.CheckLen("r", r, b.n)
	la.CheckLen("z", z, b.n)
	b.kern.offload(b.c, b.n, r, z)
	b.c.Compute(b.Flops())
	b.c.SpanEnd(obs.PhasePrecondApply, start)
	return nil
}

// slab is kern's work: L·y = r into the block's scratch, then U·z = y.
func (b *BlockJacobi) slab(r, z []float64) {
	for i := range b.fwd {
		b.forward(&b.fwd[i], r, b.y)
	}
	for i := range b.bwd {
		b.backward(&b.bwd[i], b.y, z)
	}
}

// forward runs the L·y = r sweep over one schedule step: row i computes
// y[i] = r[i] − Σ val[q]·y[colIdx[q]] over the entries stored before
// its diagonal, in storage order, reading y at the step's offsets. The
// interior rows of a 5-point stencil — a far neighbour, then the −1
// neighbour — take loops of their own that keep the −1 neighbour's
// value, the lane's previous result, in a register (p) instead of
// storing it and loading it back.
func (b *BlockJacobi) forward(st *sweepStep, r, y []float64) {
	off, d, w, n := st.off, st.d, len(st.off), st.n
	switch {
	case st.lanes == maxLanes:
		y0, r0, f0, v0, p0 := b.fwdLane(st, 0, r, y)
		y1, r1, f1, v1, p1 := b.fwdLane(st, 1, r, y)
		y2, r2, f2, v2, p2 := b.fwdLane(st, 2, r, y)
		y3, r3, f3, v3, p3 := b.fwdLane(st, 3, r, y)
		for k := 0; k < n; k++ {
			q := k * w
			u0 := v0[q : q+2 : q+2]
			p0 = r0[k] - u0[0]*f0[k] - u0[1]*p0
			y0[k] = p0
			u1 := v1[q : q+2 : q+2]
			p1 = r1[k] - u1[0]*f1[k] - u1[1]*p1
			y1[k] = p1
			u2 := v2[q : q+2 : q+2]
			p2 = r2[k] - u2[0]*f2[k] - u2[1]*p2
			y2[k] = p2
			u3 := v3[q : q+2 : q+2]
			p3 = r3[k] - u3[0]*f3[k] - u3[1]*p3
			y3[k] = p3
		}
		return
	case carries(off, d, true):
		y0, r0, f0, v0, p0 := b.fwdLane(st, 0, r, y)
		for k := 0; k < n; k++ {
			q := k * w
			u0 := v0[q : q+2 : q+2]
			p0 = r0[k] - u0[0]*f0[k] - u0[1]*p0
			y0[k] = p0
		}
		return
	}
	lo := st.lo[0]
	v := b.val[b.rowPtr[lo]:b.rowPtr[lo+n]]
	ys, rs := y[lo:lo+n], r[lo:lo+n]
	lower := off[:d]
	for k := range ys {
		row := v[k*w : k*w+d]
		s := rs[k]
		for m, o := range lower {
			s -= row[m] * y[lo+k+o]
		}
		ys[k] = s
	}
}

// fwdLane slices lane l of a forward step that carries the −1
// neighbour: its rows of y and r, its far neighbours' y, its values and
// the −1 neighbour of its first row.
func (b *BlockJacobi) fwdLane(st *sweepStep, l int, r, y []float64) (ys, rs, fs, v []float64, prev float64) {
	lo, n := st.lo[l], st.n
	return y[lo : lo+n], r[lo : lo+n], y[lo+st.off[0]:][:n], b.val[b.rowPtr[lo]:b.rowPtr[lo+n]], y[lo-1]
}

// backward runs the U·z = y sweep over one schedule step, last row of
// each lane first: row i computes z[i] = (y[i] − Σ val[q]·z[colIdx[q]])
// / val[diag] over the entries stored after its diagonal, in storage
// order. The 5-point interior rows — the +1 neighbour, then a far one —
// keep the +1 neighbour's value, the lane's row just solved, in a
// register (p).
func (b *BlockJacobi) backward(st *sweepStep, y, z []float64) {
	off, d, w, n := st.off, st.d, len(st.off), st.n
	switch {
	case st.lanes == maxLanes:
		z0, y0, f0, v0, p0 := b.bwdLane(st, 0, d, y, z)
		z1, y1, f1, v1, p1 := b.bwdLane(st, 1, d, y, z)
		z2, y2, f2, v2, p2 := b.bwdLane(st, 2, d, y, z)
		z3, y3, f3, v3, p3 := b.bwdLane(st, 3, d, y, z)
		for k := n - 1; k >= 0; k-- {
			q := k * w
			u0 := v0[q : q+3 : q+3]
			p0 = (y0[k] - u0[1]*p0 - u0[2]*f0[k]) / u0[0]
			z0[k] = p0
			u1 := v1[q : q+3 : q+3]
			p1 = (y1[k] - u1[1]*p1 - u1[2]*f1[k]) / u1[0]
			z1[k] = p1
			u2 := v2[q : q+3 : q+3]
			p2 = (y2[k] - u2[1]*p2 - u2[2]*f2[k]) / u2[0]
			z2[k] = p2
			u3 := v3[q : q+3 : q+3]
			p3 = (y3[k] - u3[1]*p3 - u3[2]*f3[k]) / u3[0]
			z3[k] = p3
		}
		return
	case carries(off, d, false):
		z0, y0, f0, v0, p0 := b.bwdLane(st, 0, d, y, z)
		for k := n - 1; k >= 0; k-- {
			q := k * w
			u0 := v0[q : q+3 : q+3]
			p0 = (y0[k] - u0[1]*p0 - u0[2]*f0[k]) / u0[0]
			z0[k] = p0
		}
		return
	}
	lo := st.lo[0]
	v := b.val[b.rowPtr[lo]:b.rowPtr[lo+n]]
	zs, ys := z[lo:lo+n], y[lo:lo+n]
	upper := off[d+1:]
	for k := len(zs) - 1; k >= 0; k-- {
		row := v[k*w+d : k*w+w]
		s := ys[k]
		for m, o := range upper {
			s -= row[1+m] * z[lo+k+o]
		}
		zs[k] = s / row[0]
	}
}

// bwdLane slices lane l of a backward step that carries the +1
// neighbour: its rows of z and y, its far neighbours' z, its values
// from the diagonal on and the +1 neighbour of its last row.
func (b *BlockJacobi) bwdLane(st *sweepStep, l, d int, y, z []float64) (zs, ys, fs, v []float64, next float64) {
	lo, n := st.lo[l], st.n
	return z[lo : lo+n], y[lo : lo+n], z[lo+st.off[d+2]:][:n], b.val[b.rowPtr[lo]+d : b.rowPtr[lo+n]], z[lo+n]
}

// Flops implements Preconditioner: two substitution sweeps touch every
// stored entry once, plus a divide per row.
func (b *BlockJacobi) Flops() float64 { return 2*float64(len(b.val)) + float64(b.n) }
