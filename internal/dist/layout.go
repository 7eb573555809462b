package dist

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/la"
)

// Layout is the part of a block-row distributed matrix that is a pure
// function of (matrix, rank count): every rank's remapped slab and halo
// plan. NewLayout derives it once; Bind hands a rank its CSR over it.
// A Layout is immutable once built, so any number of worlds, driven
// from any number of goroutines, may bind ranks to the same one at once
// — which is what lets a campaign partition each (problem, P) once
// instead of once per rank per world.
type Layout struct {
	pt      Partition
	normInf float64 // global infinity norm
	slabs   []slab  // by rank
}

// slab is one rank's share of a Layout: its rows in CSR form with
// remapped columns — owned column j maps to j-lo, ghost columns map past
// the owned range in ascending global order — the row runs of that
// pattern, and its halo plan.
type slab struct {
	rowPtr []int
	colIdx []int
	val    []float64
	runs   []la.RowRun

	ghosts  int // operand-buffer entries past the owned range
	maxSend int // length of the longest send
	sends   []haloSend
	recvs   []haloRecv
}

// haloSend lists the owned entries one neighbour's slab references.
type haloSend struct {
	rank int
	idx  []int // local owned indices, ascending global order
}

// haloRecv says where one neighbour's shipment lands in the operand
// buffer. Ghosts sort by global index and every owner's range is
// contiguous, so an owner's ghosts are one run [at, at+n) — in the
// sender's order, which is ascending global order too.
type haloRecv struct {
	rank  int
	at, n int
}

// NewLayout partitions the square global matrix a over p ranks. It is
// deterministic and communication-free: one pass over the matrix gives
// every rank's slab and receive plan, and the send plans come with them,
// because rank r's receive from owner o is o's send to r — visiting r in
// ascending order leaves each owner's sends in ascending destination
// order. Two layouts of the same (a, p) therefore use the identical
// column remap and message order. The matrix is copied, not referenced.
// Panics if a is not square or p exceeds its row count.
func NewLayout(a *la.CSR, p int) *Layout {
	if a.Rows != a.Cols {
		panic("dist: NewLayout needs a square matrix")
	}
	checkWorld(p, a.Rows, "matrix")
	l := &Layout{pt: Partition{N: a.Rows, P: p}, normInf: a.NormInf(), slabs: make([]slab, p)}

	// Every slab is a window of three arrays laid out like the matrix's
	// own (row pointers get one extra slot per rank for its closing
	// offset).
	rowPtr := make([]int, a.Rows+p)
	colIdx := make([]int, len(a.ColIdx))
	val := slices.Clone(a.Val)
	// pos[j] is column j's operand-buffer position on the rank being
	// visited. Positions are >= 1 (every rank owns a row), so the
	// array's initial zeros, stale positions from earlier ranks and the
	// visited rank's negative first-sighting mark never collide and it is
	// never cleared.
	pos := make([]int, a.Rows)
	var ghosts []int
	for r := range l.slabs {
		s := &l.slabs[r]
		lo, hi := l.pt.Range(r)
		nl := hi - lo
		q0, q1 := a.RowPtr[lo], a.RowPtr[hi]

		// Ghost columns: referenced by r's rows, owned elsewhere. Sorted
		// so the remap is deterministic and per-owner positions ascend.
		ghosts = ghosts[:0]
		mark := -1 - r
		for _, j := range a.ColIdx[q0:q1] {
			if (j < lo || j >= hi) && pos[j] != mark {
				pos[j] = mark
				ghosts = append(ghosts, j)
			}
		}
		slices.Sort(ghosts)
		for k, j := range ghosts {
			pos[j] = nl + k
		}
		s.ghosts = len(ghosts)

		// The slab, preserving in-row entry order.
		s.rowPtr = rowPtr[lo+r : hi+r+1 : hi+r+1]
		for i := range s.rowPtr {
			s.rowPtr[i] = a.RowPtr[lo+i] - q0
		}
		s.colIdx, s.val = colIdx[q0:q1:q1], val[q0:q1:q1]
		for q, j := range a.ColIdx[q0:q1] {
			if j >= lo && j < hi {
				s.colIdx[q] = j - lo
			} else {
				s.colIdx[q] = pos[j]
			}
		}
		s.runs = la.RowRuns(s.rowPtr, s.colIdx)

		// Halo plan: r's ghosts grouped by owning rank are its receives
		// and, shifted into the owner's local indices, the owner's sends.
		idx := make([]int, len(ghosts))
		for k := 0; k < len(ghosts); {
			owner := l.pt.Owner(ghosts[k])
			olo, ohi := l.pt.Range(owner)
			k0 := k
			for ; k < len(ghosts) && ghosts[k] < ohi; k++ {
				idx[k] = ghosts[k] - olo
			}
			s.recvs = append(s.recvs, haloRecv{rank: owner, at: nl + k0, n: k - k0})
			o := &l.slabs[owner]
			o.sends = append(o.sends, haloSend{rank: r, idx: idx[k0:k:k]})
			o.maxSend = max(o.maxSend, k-k0)
		}
	}
	return l
}

// Bind returns rank c.Rank()'s CSR over the layout: the slab and plans
// are shared read-only with every other rank bound to it, the operand
// and pack buffers are the rank's own. Panics if c's world does not
// have the layout's rank count.
func (l *Layout) Bind(c *comm.Comm) *CSR {
	if c.Size() != l.pt.P {
		panic(fmt.Sprintf("dist: layout over %d ranks bound in a world of %d", l.pt.P, c.Size()))
	}
	m := &CSR{c: c, slab: l.slabs[c.Rank()], rows: l.pt.N, normInf: l.normInf}
	m.lo, m.hi = l.pt.Range(c.Rank())
	nx := m.hi - m.lo + m.ghosts
	buf := make([]float64, nx+m.maxSend)
	m.xbuf, m.pack = buf[:nx:nx], buf[nx:]
	m.kern.m = m
	return m
}
