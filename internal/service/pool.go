package service

import "sync"

// pool is the bounded scheduler every solve runs on: a fixed number of
// workers draining a fixed-depth queue. Bounding both is what makes the
// service safe to point heavy traffic at — excess load either fails
// fast (submit returns false → HTTP 503) or waits its turn
// (submitWait, used by the campaign endpoint so a big grid trickles
// through the same pool single solves use, instead of monopolising an
// unbounded queue).
type pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []func()
	cap      int
	closed   bool
	inFlight int
	wg       sync.WaitGroup
}

// newPool starts workers goroutines over a queue of depth queueCap.
func newPool(workers, queueCap int) *pool {
	p := &pool{cap: queueCap}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// Closed and fully drained.
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		// Clear the slot: the backing array outlives the pop, and a
		// closure left in it keeps its request, response channel and
		// record reachable until append happens to reallocate.
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.inFlight++
		p.cond.Broadcast() // a queue slot freed: wake submitWait waiters
		p.mu.Unlock()

		job()

		p.mu.Lock()
		p.inFlight--
		p.mu.Unlock()
	}
}

// submit enqueues one job without waiting. It returns false when the
// queue is full or the pool is draining — the caller turns that into
// backpressure (503).
func (p *pool) submit(job func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.queue) >= p.cap {
		return false
	}
	p.queue = append(p.queue, job)
	p.cond.Broadcast()
	return true
}

// submitWait enqueues one job, blocking until the queue depth falls
// below limit (clamped to [1, cap]). Bulk feeders pass less than the
// full capacity so their parked goroutine — which would otherwise
// refill the queue the instant a worker frees a slot — leaves headroom
// for fail-fast interactive submits. It returns false only when the
// pool starts draining before a slot opens.
func (p *pool) submitWait(job func(), limit int) bool {
	if limit < 1 {
		limit = 1
	}
	if limit > p.cap {
		limit = p.cap
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) >= limit && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return false
	}
	p.queue = append(p.queue, job)
	p.cond.Broadcast()
	return true
}

// depth returns the number of queued (not yet running) jobs.
func (p *pool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// running returns the number of jobs currently executing.
func (p *pool) running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inFlight
}

// close stops accepting new jobs, lets every queued and running job
// finish, and waits for the workers to exit — the drain half of
// graceful shutdown (queued jobs belong to in-flight HTTP requests, so
// draining them is what keeps those requests answered).
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
