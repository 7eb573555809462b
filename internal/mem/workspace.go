package mem

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
