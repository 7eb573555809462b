package mem

import "sync"

// Workspace is a bump allocator over Reliable regions: solvers carve
// their work vectors from it once, up front, and the hot loops then run
// with zero per-iteration allocations. It is the storage-model face of
// the paper's SRP argument applied to scratch data — a solver's
// workspace is exactly the "critical data" §II-D says belongs in
// reliable storage, and Region.Raw is the contract that reliable data
// needs no per-access instrumentation.
//
// Vec never moves previously returned slices: when the current region is
// exhausted a new one is opened, so every carved vector stays valid for
// the Workspace's lifetime. Reset recycles all regions for a fresh
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
	regions []*Region
	cur     int // index of the region being carved
	off     int // next free element in regions[cur]
	slab    int // minimum size of a newly opened region
	// used counts the regions that existed at the last Reset and so may
	// hold an earlier pass's values; later ones are still as NewRegion
	// zeroed them.
	used int
}

// NewWorkspace creates a workspace whose first region holds capacity
// elements (minimum 1).
func NewWorkspace(capacity int) *Workspace {
	if capacity < 1 {
		capacity = 1
	}
	return &Workspace{
		regions: []*Region{NewRegion(capacity, Reliable, 0, nil)},
		slab:    capacity,
	}
}

// maxPooled is the largest footprint, in elements (256 KiB), that
// Return keeps for the next Borrow. Scratch of a few thousand elements
// is what short solves allocate over and over, and recycling it is what
// lowers their collection frequency; a workspace of hundreds of
// thousands of elements is carved by a solve long enough to amortise
// it, and parking it between solves would only raise resident memory.
const maxPooled = 32 << 10

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
	if w, _ := pool.Get().(*Workspace); w != nil && w.regions[0].Len() >= capacity {
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

// Vec returns a zeroed length-n slice carved from reliable storage.
func (w *Workspace) Vec(n int) []float64 {
	for {
		r := w.regions[w.cur].Raw()
		if w.off+n <= len(r) {
			v := r[w.off : w.off+n : w.off+n]
			w.off += n
			if w.cur < w.used {
				clear(v)
			}
			return v
		}
		if w.cur+1 < len(w.regions) && n <= w.regions[w.cur+1].Len() {
			w.cur++
			w.off = 0
			continue
		}
		size := w.slab
		if n > size {
			size = n
		}
		w.regions = append(w.regions, NewRegion(size, Reliable, 0, nil))
		w.cur = len(w.regions) - 1
		w.off = 0
	}
}

// Mat returns an r×c matrix of carved row slices (a convenience for
// basis storage: one contiguous region, r stable row views).
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
	w.used = len(w.regions)
}

// Footprint returns the total number of float64 elements held.
func (w *Workspace) Footprint() int {
	n := 0
	for _, r := range w.regions {
		n += r.Len()
	}
	return n
}
