package comm

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Op is a reduction operator for Allreduce/Reduce.
type Op int

// Reduction operators. Sum is evaluated in rank order, so results do not
// depend on the order ranks posted in.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic(fmt.Sprintf("comm: unknown reduction op %d", int(o)))
	}
}

// collKind distinguishes the collective families so mismatched calls
// (rank 0 in a Barrier while rank 1 is in an Allreduce) fail loudly
// instead of silently exchanging garbage.
type collKind int

const (
	kindBarrier collKind = iota
	kindAllreduce
	kindBroadcast
	kindAllgather
)

func (k collKind) String() string {
	return [...]string{"barrier", "allreduce", "broadcast", "allgather"}[k]
}

// collSlot is the rendezvous for one collective call instance. All ranks'
// k-th collective in an epoch lands in the same slot (MPI's ordering
// rule). Contributions are stored per rank and reduced in rank order on
// completion, making floating-point results independent of post order.
type collSlot struct {
	kind     collKind
	op       Op
	root     int
	contrib  [][]float64 // contrib[r] = rank r's payload (nil until posted)
	arrived  int
	maxPost  float64 // latest post (entry) virtual time
	done     bool
	complete float64 // virtual completion time
	result   []float64
	departed int // ranks that have consumed the result (slot GC)
}

// post finds or creates the slot for this rank's next collective, posts
// the rank's contribution and returns the handle to wait on — carrying
// the error instead if the world is in a failed state. Advances seq.
func (c *Comm) post(kind collKind, op Op, root int, data []float64) Request {
	w := c.world
	if err := c.checkAlive(); err != nil {
		return Request{err: err}
	}
	// checkAlive has established c.epoch == w.epoch, so the slot is in
	// w.colls, at or past its base: a slot retires only once every rank,
	// this one included, has been through it.
	key := collKey{epoch: c.epoch, seq: c.seq}
	c.seq++
	at := key.seq - w.collBase
	for len(w.colls) <= at {
		w.colls = append(w.colls, nil)
	}
	s := w.colls[at]
	if s == nil {
		// Recycle a retired slot when one is available: the contrib
		// array survives reuse, so a steady-state reduction loop
		// allocates nothing.
		if n := len(w.slotPool); n > 0 {
			s = w.slotPool[n-1]
			w.slotPool[n-1] = nil
			w.slotPool = w.slotPool[:n-1]
			*s = collSlot{kind: kind, op: op, root: root, contrib: s.contrib}
		} else {
			s = &collSlot{kind: kind, op: op, root: root, contrib: make([][]float64, w.n)}
		}
		w.colls[at] = s
	} else if s.kind != kind || s.op != op || s.root != root {
		panic(fmt.Sprintf("comm: collective mismatch at epoch %d seq %d: rank %d called kind=%d op=%d root=%d, slot has kind=%d op=%d root=%d",
			c.epoch, key.seq, c.rank, kind, op, root, s.kind, s.op, s.root))
	}
	// Copy the payload so the caller can reuse its buffer immediately.
	// A Barrier's nil payload becomes a non-nil empty slice, which is what
	// marks this rank as arrived in contrib.
	cp := w.pool.get(len(data))
	copy(cp, data)
	s.contrib[c.rank] = cp
	s.arrived++
	if t := c.clock.Now(); t > s.maxPost {
		s.maxPost = t
	}
	c.stats.Collective++
	if s.arrived == w.n && !s.done {
		w.finishColl(s)
	}
	return Request{c: c, s: s, key: key}
}

// finishColl computes the collective result and completion time once
// every rank has posted, and makes the ranks waiting on the slot runnable.
func (w *World) finishColl(s *collSlot) {
	var msgBytes int
	switch s.kind {
	case kindBarrier:
		msgBytes = 8
		s.result = nil
	case kindAllreduce:
		n := len(s.contrib[0])
		msgBytes = 8 * n
		res := w.pool.get(n)
		copy(res, s.contrib[0])
		for r := 1; r < w.n; r++ {
			if len(s.contrib[r]) != n {
				panic("comm: Allreduce length mismatch across ranks")
			}
			s.op.apply(res, s.contrib[r])
		}
		s.result = res
	case kindBroadcast:
		src := s.contrib[s.root]
		msgBytes = 8 * len(src)
		res := w.pool.get(len(src))
		copy(res, src)
		s.result = res
	case kindAllgather:
		n := 0
		for r := 0; r < w.n; r++ {
			n += len(s.contrib[r])
		}
		msgBytes = 8 * n
		total := w.pool.get(n)
		at := 0
		for r := 0; r < w.n; r++ {
			at += copy(total[at:], s.contrib[r])
		}
		s.result = total
	}
	// The contributions are folded into the result; recycle them now so
	// the next collective can pick them up without allocating.
	for r := range s.contrib {
		w.pool.put(s.contrib[r])
		s.contrib[r] = nil
	}
	s.complete = s.maxPost + w.cost.Collective(w.n, msgBytes)
	s.done = true
	w.observeClock(s.complete)
	for r := range w.ranks {
		if rk := &w.ranks[r]; rk.state == rankBlocked && rk.on.slot == s {
			w.makeReady(r)
		}
	}
}

// finish blocks until the collective completes (or the world fails
// under it), synchronises this rank's clock to the completion time and
// delivers the result: copied into out, or into a fresh slice when
// fresh. A slot that completed before a failure still delivers — the
// check order is own death, completion, then revocation or a Repair
// since the post (either of which means the slot never will complete).
// An all-reduce emits its span over the blocked tail, entry to
// completion: virtual time the rank spent computing between post and
// wait is attributed to the compute phases it actually ran, which is
// the point of the overlap.
func (r *Request) finish(out []float64, fresh bool) ([]float64, error) {
	if r.err != nil {
		return nil, r.err
	}
	c, s, w := r.c, r.s, r.c.world
	start, mark := c.SpanStart(), c.WaitMark()
	for {
		if w.failed[c.rank] {
			return nil, ErrKilled
		}
		if s.done {
			break
		}
		// The request's epoch, not the comm's: a survivor may already
		// have joined the next epoch when it turns to a request it
		// posted in the failed one, whose slot Repair has dropped.
		if w.revoked || r.key.epoch != w.epoch {
			return nil, ErrRankFailed
		}
		if err := c.block(rankBlocked, waitFor{slot: s, key: r.key}); err != nil {
			return nil, err
		}
	}
	// Wait attribution: the gap between this rank's clock and the last
	// poster's is time spent idle behind the slowest participant. The
	// remaining (complete − maxPost) collective cost is paid by every
	// rank alike, so it counts as work, not wait. Both operands are
	// deterministic virtual times, so the accrual is too.
	if lag := s.maxPost - c.clock.Now(); lag > 0 {
		c.waited += lag
	}
	c.clock.SyncTo(s.complete)
	w.observeClock(c.clock.Now())
	switch {
	case fresh:
		out = slices.Clone(s.result)
	case len(out) < len(s.result):
		panic("comm: collective destination shorter than result")
	default:
		out = out[:copy(out, s.result)]
	}
	if s.kind == kindAllreduce {
		c.SpanEndWait(obs.PhaseAllreduce, start, mark)
	}
	// The last rank out recycles the result buffer and the slot itself.
	if s.departed++; s.departed == w.n {
		// A slot that completed before a failure still delivers after the
		// Repair that dropped it: only a current-epoch slot is in w.colls.
		if r.key.epoch == w.epoch {
			w.retireColl(r.key.seq)
		}
		w.pool.put(s.result)
		s.result = nil
		if len(w.slotPool) < 64 {
			w.slotPool = append(w.slotPool, s)
		}
	}
	return out, nil
}

// retireColl removes the finished slot of sequence number seq from
// w.colls and advances the base past every leading retired slot.
func (w *World) retireColl(seq int) {
	w.colls[seq-w.collBase] = nil
	n := 0
	for n < len(w.colls) && w.colls[n] == nil {
		n++
	}
	if n > 0 {
		// Shift down rather than reslice, so the backing array is reused
		// forever and a steady-state loop appends without allocating.
		live := copy(w.colls, w.colls[n:])
		clear(w.colls[live:])
		w.colls = w.colls[:live]
		w.collBase += n
	}
}

// Barrier blocks until every rank arrives; all clocks advance to the
// common completion time. This is the explicit BSP synchronisation point
// whose cost the RBSP experiments quantify.
func (c *Comm) Barrier() error {
	r := c.post(kindBarrier, OpSum, 0, nil)
	_, err := r.finish(nil, true)
	return err
}

// Allreduce combines each rank's data elementwise with op and returns the
// combined vector to every rank. All ranks must pass equal-length slices.
func (c *Comm) Allreduce(data []float64, op Op) ([]float64, error) {
	r := c.post(kindAllreduce, op, 0, data)
	return r.finish(nil, true)
}

// AllreduceInto is Allreduce with a caller-provided result buffer (which
// may alias data — the contribution is copied at post time). With the
// world's buffer and slot recycling this makes a steady-state reduction
// loop fully allocation-free, which is what lets the Krylov hot loops
// reach 0 allocs/iteration.
func (c *Comm) AllreduceInto(data []float64, op Op, out []float64) error {
	r := c.post(kindAllreduce, op, 0, data)
	_, err := r.finish(out, false)
	return err
}

// AllreduceScalar is Allreduce for a single value. It is allocation-free.
func (c *Comm) AllreduceScalar(x float64, op Op) (float64, error) {
	c.sbuf[0] = x
	if err := c.AllreduceInto(c.sbuf[:], op, c.sbuf[:]); err != nil {
		return 0, err
	}
	return c.sbuf[0], nil
}

// Broadcast distributes root's data to every rank. Non-root ranks may
// pass nil.
func (c *Comm) Broadcast(root int, data []float64) ([]float64, error) {
	r := c.post(kindBroadcast, OpSum, root, data)
	return r.finish(nil, true)
}

// Allgather concatenates every rank's contribution in rank order and
// returns the whole vector to every rank. Contributions may have
// different lengths.
func (c *Comm) Allgather(data []float64) ([]float64, error) {
	r := c.post(kindAllgather, OpSum, 0, data)
	return r.finish(nil, true)
}

// Reduce combines data with op and delivers the result to root only;
// other ranks receive nil. The cost model is the same tree as Allreduce
// (conservatively synchronising all participants — the common MPI
// implementation behaviour for small messages).
func (c *Comm) Reduce(root int, data []float64, op Op) ([]float64, error) {
	res, err := c.Allreduce(data, op)
	if c.rank != root {
		res = nil
	}
	return res, err
}
