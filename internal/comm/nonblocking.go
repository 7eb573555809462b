package comm

// Request is the handle to an in-flight non-blocking collective, the
// MPI-3 capability the paper identifies as the enabler of Relaxed
// Bulk-Synchronous Programming (§II-B). Between posting the operation and
// calling WaitInto, the rank may execute Compute phases; the virtual-time
// semantics are that the collective completes at
//
//	T = (last rank's post time) + tree cost,
//
// and WaitInto advances the caller's clock only to max(own clock, T) —
// so any computation performed between post and wait genuinely hides
// collective latency, exactly the overlap a real MPI_Iallreduce offers.
type Request struct {
	c   *Comm
	s   *collSlot
	err error // set instead of s when the post failed
}

// StartAllreduce posts a non-blocking all-reduce into a caller-owned
// Request, so a pipelined solver can reuse one Request value across all
// iterations instead of allocating a handle per post. data may be reused
// immediately (the contribution is copied at post time); complete with
// WaitInto for a fully allocation-free overlap loop.
func (c *Comm) StartAllreduce(data []float64, op Op, req *Request) {
	s, err := c.arrive(kindAllreduce, op, data)
	*req = Request{c: c, s: s, err: err}
}

// WaitInto blocks until the collective completes and copies its result
// into out (which must be at least result-sized), returning the number
// of values copied. It may be called once and performs no allocation.
func (r *Request) WaitInto(out []float64) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	res, err := r.c.finish(r.s, out, false)
	return len(res), err
}
