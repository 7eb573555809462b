// Package mem holds solver scratch storage: a bump allocator over plain
// float64 slabs, carved once per solve so the hot loops run with zero
// per-iteration allocations, and a process-wide pool that recycles it
// between short solves.
package mem

import "sync"

// Workspace is a bump allocator over float64 slabs: solvers carve their
// work vectors from it once, up front, and the hot loops then run with
// zero per-iteration allocations.
//
// Vec never moves previously returned slices: when the current slab is
// exhausted a new one is opened, so every carved vector stays valid for
// the Workspace's lifetime. Reset recycles all slabs for a fresh
// carving pass (previously returned slices then alias new vectors and
// must no longer be used).
//
// A solve that needs its scratch for one call only takes a recycled
// workspace with Borrow and hands it back with Return. The ownership
// rule: nothing carved from a borrowed workspace may be reachable after
// Return — whatever outlives the call (a solution, a residual history)
// is copied out first. The next borrower, possibly on another
// goroutine, is handed the same storage.
type Workspace struct {
	slabs [][]float64
	cur   int // index of the slab being carved
	off   int // next free element in slabs[cur]
	slab  int // minimum size of a newly opened slab
	// used counts the slabs that existed at the last Reset and so may
	// hold an earlier pass's values; later ones are still as make
	// zeroed them.
	used int
}

// NewWorkspace creates a workspace whose first slab holds capacity
// elements (minimum 1).
func NewWorkspace(capacity int) *Workspace {
	if capacity < 1 {
		capacity = 1
	}
	return &Workspace{slabs: [][]float64{make([]float64, capacity)}, slab: capacity}
}

// maxPooled is the largest footprint, in elements (4 MiB), that Return
// keeps for the next Borrow. Recycling is what spares a solve zeroing
// and page-faulting fresh scratch, and that cost grows with the
// footprint instead of amortising: a 2-rank FGMRES(30) solve on a
// grid-96 problem borrows about 290 Ki elements per rank, an FT-GMRES
// inner solve about 60 Ki, and allocating them fresh every time cost
// several per cent of such a campaign's CPU. The bound keeps a solve
// far larger than that from parking its scratch in the pool between
// solves.
const maxPooled = 512 << 10

// pool holds the returned workspaces. A sync.Pool trims itself under
// collection, so idle scratch is not held for good.
var pool sync.Pool

// Borrow returns a workspace with room for capacity elements, recycled
// when one is at hand: every Vec it hands out is zeroed, exactly as a
// new workspace's is. A recycled workspace too small for capacity is
// dropped for a new one of exactly capacity, so no workspace ever holds
// more than the largest request it has served. Pair every Borrow with a
// Return.
func Borrow(capacity int) *Workspace {
	if w, _ := pool.Get().(*Workspace); w != nil && len(w.slabs[0]) >= capacity {
		w.Reset()
		return w
	}
	return NewWorkspace(capacity)
}

// Return gives a workspace back for the next Borrow; the caller must
// hold nothing carved from it (see the ownership rule on Workspace).
// One whose footprint exceeds maxPooled is dropped instead.
func (w *Workspace) Return() {
	if w.Footprint() <= maxPooled {
		pool.Put(w)
	}
}

// Vec returns a zeroed length-n slice.
func (w *Workspace) Vec(n int) []float64 {
	for {
		s := w.slabs[w.cur]
		if w.off+n <= len(s) {
			v := s[w.off : w.off+n : w.off+n]
			w.off += n
			if w.cur < w.used {
				clear(v)
			}
			return v
		}
		if w.cur+1 < len(w.slabs) && n <= len(w.slabs[w.cur+1]) {
			w.cur++
			w.off = 0
			continue
		}
		w.slabs = append(w.slabs, make([]float64, max(w.slab, n)))
		w.cur = len(w.slabs) - 1
		w.off = 0
	}
}

// Mat returns an r×c matrix of carved row slices (a convenience for
// basis storage: r stable row views).
func (w *Workspace) Mat(r, c int) [][]float64 {
	rows := make([][]float64, r)
	for i := range rows {
		rows[i] = w.Vec(c)
	}
	return rows
}

// Reset makes the whole workspace available for carving again.
func (w *Workspace) Reset() {
	w.cur = 0
	w.off = 0
	w.used = len(w.slabs)
}

// Footprint returns the total number of float64 elements held.
func (w *Workspace) Footprint() int {
	n := 0
	for _, s := range w.slabs {
		n += len(s)
	}
	return n
}
