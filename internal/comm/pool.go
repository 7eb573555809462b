package comm

// bufPool is a free list of float64 slices shared by one world's message
// payloads and collective contributions/results. Every communication
// operation used to allocate its payload copy; recycling them through
// this pool is what makes the steady-state hot paths (halo exchange,
// scalar all-reduce) allocation-free, which the benchmark harness gates
// on. Like the rest of a world it is touched by one rank at a time and
// needs no lock.
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
		// Zero-length marker (barrier contributions): a zero-size make
		// never heap-allocates, and taking a real buffer would waste it.
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

// put returns a buffer to the pool. Zero-capacity buffers (barrier
// markers) and overflow beyond the cap are dropped for the GC.
func (p *bufPool) put(b []float64) {
	if cap(b) == 0 || len(p.bufs) >= poolMaxBufs {
		return
	}
	p.bufs = append(p.bufs, b)
}
