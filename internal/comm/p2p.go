package comm

// message is one in-flight point-to-point payload, queued in its
// destination's mailbox (World.queues) until a matching Recv takes it.
type message struct {
	src    int
	tag    int
	data   []float64
	arrive float64 // earliest virtual time the receiver can complete the Recv
	epoch  int
}

// Send delivers a copy of data to rank dst with the given tag. In this
// model a send is buffered and never blocks: the sender pays its CPU
// overhead and continues; the message carries the virtual time at which
// it can be received. Send fails with ErrKilled/ErrRankFailed per the
// world's failure state; sending to a failed rank fails immediately.
func (c *Comm) Send(dst, tag int, data []float64) error {
	w := c.world
	if err := c.checkAlive(); err != nil {
		return err
	}
	if dst < 0 || dst >= w.n {
		panic("comm: Send to rank out of range")
	}
	if w.failed[dst] {
		return ErrRankFailed
	}
	// Sender pays its overhead, then the message flies. The payload copy
	// comes from the world's message pool: RecvInto returns it there, so
	// steady-state exchanges allocate nothing.
	c.clock.Advance(w.cost.Overhead)
	bytes := 8 * len(data)
	arrive := c.clock.Now() + w.cost.PointToPoint(bytes)
	cp := w.pool.get(len(data))
	copy(cp, data)
	w.queues[dst] = append(w.queues[dst], message{src: c.rank, tag: tag, data: cp, arrive: arrive, epoch: c.epoch})
	c.stats.Sends++
	if rk := &w.ranks[dst]; rk.state == rankBlocked && rk.on.slot == nil && rk.on.src == c.rank && rk.on.tag == tag {
		w.makeReady(dst)
	}
	return nil
}

// Recv blocks until a message from rank src with the given tag is
// available, then returns its payload. The receiver's clock advances to
// the message's arrival time plus receive overhead. Recv returns
// ErrRankFailed if src (or any rank) fails while it waits. The returned
// slice is owned by the caller; allocation-free receivers use RecvInto.
func (c *Comm) Recv(src, tag int) ([]float64, error) { return c.recvMessage(src, tag) }

// RecvInto is Recv with a caller-provided destination: the payload is
// copied into dst (which must be at least as long as the message) and
// the message's internal buffer is recycled, so a steady-state exchange
// over fixed-size halos performs zero allocations. It returns the
// number of values copied.
func (c *Comm) RecvInto(src, tag int, dst []float64) (int, error) {
	m, err := c.recvMessage(src, tag)
	if err != nil {
		return 0, err
	}
	if len(dst) < len(m) {
		panic("comm: RecvInto destination shorter than message")
	}
	n := copy(dst, m)
	c.world.pool.put(m)
	return n, nil
}

// recvMessage blocks until a matching message is available, removes it
// from the queue, advances the clock, and returns its payload buffer.
func (c *Comm) recvMessage(src, tag int) ([]float64, error) {
	w := c.world
	for {
		if err := c.checkAlive(); err != nil {
			return nil, err
		}
		q := w.queues[c.rank]
		for i := range q {
			m := &q[i]
			if m.src == src && m.tag == tag && m.epoch == c.epoch {
				data := m.data
				// Arriving before the message does is wait time: the
				// receiver idles until the sender's payload lands. A
				// receiver that shows up after arrival accrues nothing.
				if lag := m.arrive - c.clock.Now(); lag > 0 {
					c.waited += lag
				}
				c.clock.SyncTo(m.arrive)
				c.clock.Advance(w.cost.Overhead)
				w.queues[c.rank] = append(q[:i], q[i+1:]...)
				c.stats.Recvs++
				return data, nil
			}
		}
		if err := c.block(rankBlocked, waitFor{src: src, tag: tag}); err != nil {
			return nil, err
		}
	}
}
