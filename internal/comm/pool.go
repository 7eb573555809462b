package comm

// bufPool is a free list of float64 slices for one world's
// point-to-point message payloads: Send takes the payload copy from it
// and RecvInto returns it, which is what makes a steady-state halo
// exchange allocation-free, as the benchmark harness gates. (Collectives
// keep their contributions and results in their slots' own storage.)
// Like the rest of a world it is touched by one rank at a time and needs
// no lock.
type bufPool struct {
	bufs [][]float64
}

// poolMaxBufs bounds the free list so a burst of large transient
// payloads cannot pin memory for the rest of a long simulation.
const poolMaxBufs = 256

// get returns a slice of length n, reusing a pooled buffer when one is
// big enough. The contents are unspecified: every caller fully
// overwrites [0, n).
func (p *bufPool) get(n int) []float64 {
	if n == 0 {
		// An empty message: a zero-size make never heap-allocates, and
		// taking a real buffer would waste it.
		return make([]float64, 0)
	}
	// Scan newest-first: workloads reuse a handful of fixed sizes, so
	// the buffer freed by the previous operation usually fits.
	for i := len(p.bufs) - 1; i >= 0; i-- {
		if b := p.bufs[i]; cap(b) >= n {
			last := len(p.bufs) - 1
			p.bufs[i] = p.bufs[last]
			p.bufs[last] = nil
			p.bufs = p.bufs[:last]
			return b[:n]
		}
	}
	return make([]float64, n)
}

// put returns a buffer to the pool. Zero-capacity buffers (empty
// messages) and overflow beyond the cap are dropped for the GC.
func (p *bufPool) put(b []float64) {
	if cap(b) == 0 || len(p.bufs) >= poolMaxBufs {
		return
	}
	p.bufs = append(p.bufs, b)
}
