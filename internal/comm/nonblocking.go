package comm

// Request is the handle to an in-flight non-blocking collective, the
// MPI-3 capability the paper identifies as the enabler of Relaxed
// Bulk-Synchronous Programming (§II-B). Between posting the operation and
// calling Wait, the rank may execute Compute phases; the virtual-time
// semantics are that the collective completes at
//
//	T = (last rank's post time) + tree cost,
//
// and Wait advances the caller's clock only to max(own clock, T) — so any
// computation performed between post and Wait genuinely hides collective
// latency, exactly the overlap a real IAllreduce offers.
type Request struct {
	c   *Comm
	s   *collSlot
	err error // set instead of s when the post failed
}

// IAllreduce posts a non-blocking all-reduce of data with op and returns
// immediately with a Request. The caller must eventually call Wait.
func (c *Comm) IAllreduce(data []float64, op Op) *Request {
	req := new(Request)
	c.StartAllreduce(data, op, req)
	return req
}

// StartAllreduce posts a non-blocking all-reduce into a caller-owned
// Request, so a pipelined solver can reuse one Request value across all
// iterations instead of allocating a handle per post. data may be reused
// immediately (the contribution is copied at post time); complete with
// WaitInto for a fully allocation-free overlap loop.
func (c *Comm) StartAllreduce(data []float64, op Op, req *Request) {
	s, err := c.arrive(kindAllreduce, op, 0, data)
	*req = Request{c: c, s: s, err: err}
}

// IBarrier posts a non-blocking barrier.
func (c *Comm) IBarrier() *Request {
	s, err := c.arrive(kindBarrier, OpSum, 0, nil)
	return &Request{c: c, s: s, err: err}
}

// Wait blocks until the collective completes and returns its result
// (nil for a barrier). It may be called once.
func (r *Request) Wait() ([]float64, error) { return r.finish(nil, true) }

// WaitInto blocks until the collective completes and copies its result
// into out (which must be at least result-sized), returning the number
// of values copied. Like Wait it may be called once; unlike Wait it
// performs no allocation.
func (r *Request) WaitInto(out []float64) (int, error) {
	res, err := r.finish(out, false)
	return len(res), err
}

func (r *Request) finish(out []float64, fresh bool) ([]float64, error) {
	if r.err != nil {
		return nil, r.err
	}
	return r.c.finish(r.s, out, fresh)
}

// Test reports whether Wait would return without blocking — every rank
// has posted, or the world has failed under the collective (a Repair
// since the post included: the request's epoch is gone even if this
// rank has joined the next) — without advancing the clock. It does not
// yield: no other rank runs between two Tests, so poll it between work
// phases, not in a spin loop.
func (r *Request) Test() bool {
	return r.err != nil || r.s.arrived == r.c.world.n || r.s.epoch != r.c.world.epoch || r.c.checkAlive() != nil
}
