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
	kindAllgather
)

// String names the collective family in mismatch panics.
func (k collKind) String() string {
	return [...]string{"barrier", "allreduce", "allgather"}[k]
}

// slotKeepWords bounds the storage a recycled slot keeps: a slot that
// served a larger collective drops its buffers on retirement, so one
// large gather cannot pin memory for the rest of a long simulation.
const slotKeepWords = 1 << 15

// collSlot is the rendezvous for one collective call instance: the
// seq-th collective of an epoch, which every rank's seq-th collective
// in that epoch lands in (MPI's ordering rule). Every entry point —
// blocking or not, scalar or vector — meets the others here through
// one protocol: arrive (write the contribution, count it), complete
// (the last arrival folds in rank order, so results do not depend on
// post order), await, depart (the last rank out recycles the slot).
type collSlot struct {
	kind       collKind
	op         Op
	epoch, seq int
	arrived    int     // ranks that have posted; all of them = complete
	maxPost    float64 // latest post (entry) virtual time
	complete   float64 // virtual completion time
	departed   int     // ranks that have consumed the result

	// The slot's own storage, kept across reuse: the contributions in
	// arrival order (rank r's is vals[parts[r][0]:parts[r][1]]), then
	// the result, built behind them on completion.
	vals   []float64
	parts  [][2]int
	result []float64
}

func (s *collSlot) part(r int) []float64 { return s.vals[s.parts[r][0]:s.parts[r][1]] }

// arrive finds or opens the slot of this rank's next collective, copies
// the rank's contribution into it (the caller may reuse data at once)
// and counts the arrival; the last rank to arrive completes the slot.
// It advances seq, or fails with nothing posted when the world is in a
// failed state.
func (c *Comm) arrive(kind collKind, op Op, data []float64) (*collSlot, error) {
	w := c.world
	if err := c.checkAlive(); err != nil {
		return nil, err
	}
	// checkAlive has established c.epoch == w.epoch, so the slot is in
	// w.colls, at or past its base: a slot retires only once every rank,
	// this one included, has been through it.
	seq := c.seq
	c.seq++
	at := seq - w.collBase
	for len(w.colls) <= at {
		w.colls = append(w.colls, nil)
	}
	s := w.colls[at]
	if s == nil {
		// Recycle a retired slot when one is available: its storage
		// survives reuse, so a steady-state loop allocates nothing.
		if n := len(w.slotPool); n > 0 {
			s = w.slotPool[n-1]
			w.slotPool = w.slotPool[:n-1]
		} else {
			s = &collSlot{parts: make([][2]int, w.n), vals: make([]float64, 0, (w.n+1)*len(data))}
		}
		s.kind, s.op, s.epoch, s.seq = kind, op, c.epoch, seq
		w.colls[at] = s
	} else if s.kind != kind || s.op != op {
		panic(fmt.Sprintf("comm: collective mismatch at epoch %d seq %d: rank %d called kind=%d op=%d, slot has kind=%d op=%d",
			c.epoch, seq, c.rank, kind, op, s.kind, s.op))
	}
	s.parts[c.rank] = [2]int{len(s.vals), len(s.vals) + len(data)}
	s.vals = append(s.vals, data...)
	s.arrived++
	if t := c.clock.Now(); t > s.maxPost {
		s.maxPost = t
	}
	c.stats.Collective++
	if s.arrived == w.n {
		w.completeColl(s)
	}
	return s, nil
}

// completeColl builds the result in rank order once every rank has
// arrived, fixes the completion time and makes the ranks waiting on the
// slot runnable.
func (w *World) completeColl(s *collSlot) {
	at := len(s.vals)
	switch s.kind {
	case kindAllreduce:
		s.vals = append(s.vals, s.part(0)...)
		for r := 1; r < w.n; r++ {
			if len(s.part(r)) != len(s.vals)-at {
				panic("comm: Allreduce length mismatch across ranks")
			}
			s.op.apply(s.vals[at:], s.part(r))
		}
	case kindAllgather:
		for r := 0; r < w.n; r++ {
			s.vals = append(s.vals, s.part(r)...)
		}
	}
	s.result = s.vals[at:]
	msgBytes := 8 * len(s.result)
	if s.kind == kindBarrier {
		msgBytes = 8
	}
	s.complete = s.maxPost + w.cost.Collective(w.n, msgBytes)
	w.observeClock(s.complete)
	for r := range w.ranks {
		if rk := &w.ranks[r]; rk.state == rankBlocked && rk.on.slot == s {
			w.makeReady(r)
		}
	}
}

// await blocks until slot s completes, or the world fails under it, and
// then brings this rank's clock to the completion time. A slot that
// completed before a failure still delivers — the check order is own
// death, completion, then revocation or a Repair since the post (the
// slot's epoch, not the comm's: a survivor may already have joined the
// next epoch when it turns to a request it posted in the failed one).
func (c *Comm) await(s *collSlot) error {
	w := c.world
	for {
		if w.failed[c.rank] {
			return ErrKilled
		}
		if s.arrived == w.n {
			break
		}
		if w.revoked || s.epoch != w.epoch {
			return ErrRankFailed
		}
		if c.halted == nil { // block, inline: one frame fewer to switch
			rk := &w.ranks[c.rank]
			rk.state, rk.on = rankBlocked, waitFor{slot: s}
			if !c.yield(struct{}{}) {
				c.halted = w.halt
			}
		}
		if c.halted != nil {
			return c.halted
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
	return nil
}

// depart records that this rank has taken slot s's result. The last rank
// out retires the slot and recycles it with its storage.
func (w *World) depart(s *collSlot) {
	if s.departed++; s.departed < w.n {
		return
	}
	// A slot that completed before a failure still delivers after the
	// Repair that dropped it: only a current-epoch slot is in w.colls.
	if s.epoch == w.epoch {
		w.retireColl(s.seq)
	}
	if len(w.slotPool) < 64 {
		vals := s.vals[:0]
		if cap(vals) > slotKeepWords {
			vals = nil
		}
		*s = collSlot{parts: s.parts, vals: vals}
		w.slotPool = append(w.slotPool, s)
	}
}

// finish waits on slot s and delivers its result: copied into out, or
// into a fresh slice when fresh. An all-reduce emits its span over the
// blocked tail, entry to completion: virtual time the rank spent
// computing between post and wait is attributed to the compute phases
// it actually ran, which is the point of the overlap.
func (c *Comm) finish(s *collSlot, out []float64, fresh bool) ([]float64, error) {
	start, mark := c.SpanStart(), c.WaitMark()
	if err := c.await(s); err != nil {
		return nil, err
	}
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
	c.world.depart(s)
	return out, nil
}

// collective is a blocking collective: arrive, then finish.
func (c *Comm) collective(kind collKind, op Op, data, out []float64, fresh bool) ([]float64, error) {
	s, err := c.arrive(kind, op, data)
	if err != nil {
		return nil, err
	}
	return c.finish(s, out, fresh)
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
	_, err := c.collective(kindBarrier, OpSum, nil, nil, false)
	return err
}

// Allreduce combines each rank's data elementwise with op and returns the
// combined vector to every rank. All ranks must pass equal-length slices.
func (c *Comm) Allreduce(data []float64, op Op) ([]float64, error) {
	return c.collective(kindAllreduce, op, data, nil, true)
}

// AllreduceInto is Allreduce with a caller-provided result buffer (which
// may alias data — the contribution is copied at post time). With the
// slots' recycled storage this makes a steady-state reduction loop
// fully allocation-free, which is what lets the Krylov hot loops reach
// 0 allocs/iteration.
func (c *Comm) AllreduceInto(data []float64, op Op, out []float64) error {
	_, err := c.collective(kindAllreduce, op, data, out, false)
	return err
}

// AllreduceScalar is Allreduce for a single value. It is allocation-free
// and the reduction the solvers post most often, so it meets the slot
// directly: one write, one arrival, one wait.
func (c *Comm) AllreduceScalar(x float64, op Op) (float64, error) {
	c.sbuf[0] = x
	s, err := c.arrive(kindAllreduce, op, c.sbuf[:])
	if err != nil {
		return 0, err
	}
	start, mark := c.SpanStart(), c.WaitMark()
	if err := c.await(s); err != nil {
		return 0, err
	}
	x = s.result[0]
	c.SpanEndWait(obs.PhaseAllreduce, start, mark)
	c.world.depart(s)
	return x, nil
}

// Allgather concatenates every rank's contribution in rank order and
// returns the whole vector to every rank. Contributions may have
// different lengths.
func (c *Comm) Allgather(data []float64) ([]float64, error) {
	return c.collective(kindAllgather, OpSum, data, nil, true)
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
