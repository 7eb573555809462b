package comm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// OffloadRows is the slab height from which Offload may hand a kernel
// to a helper thread. It is a constant of the program, never derived
// from the host, because it decides where ranks yield: thinner slabs
// run their kernels inline and never yield at a kernel. The sweep in
// docs/BENCHMARKING.md ("A fat rank lends its kernels") read a loss up
// to 2048 rows a rank, about even at 2304–2592 and a gain from 3200.
const OffloadRows = 3072

// Job is a rank-local kernel for Offload: Run touches only memory the
// offloading rank owns (its slab vectors and operator storage, never
// world state) and does not call back into its Comm.
type Job interface{ Run() }

// Job states. A rank's job slot is idle unless the rank sits in the
// ready ring behind an Offload; posted means no thread has taken the
// job yet, running that the helper has. The driver claims a posted job by
// setting it straight back to idle before running it itself, so a
// panicking job leaves nothing to wait for.
const (
	jobIdle uint32 = iota
	jobPosted
	jobRunning
)

// jobSlot is the one piece of a world the helper touches.
type jobSlot struct {
	state atomic.Uint32
	job   Job
}

// Offload runs job, a kernel over a slab of the given number of rows.
// Below OffloadRows rows it simply runs it. Otherwise it may run it on
// the helper thread while the world's other ranks run: the rank posts
// the job, queues itself at the tail of the ready ring and yields.
// When the driver next reaches the rank it runs the job itself if no
// helper has started it; if the helper is still running it, the driver
// first runs any unstarted job of another queued rank, then waits for
// the helper, then resumes the rank. So which thread runs a kernel
// depends on the host, but the order in which ranks run — hence every
// result, ledger and event — depends only on the program. When Offload
// returns, the job has run, also if the world was unwound meanwhile
// (the next operation reports that). Offload charges no virtual time,
// and allocates nothing once the helper has started.
func (c *Comm) Offload(rows int, job Job) {
	w := c.world
	if rows < OffloadRows || c.halted != nil {
		job.Run()
		return
	}
	s := &w.ranks[c.rank].job
	s.job = job
	s.state.Store(jobPosted)
	if w.procs == 0 {
		w.procs = runtime.GOMAXPROCS(0)
	}
	offer(s, c.rank, w.procs)
	w.makeReady(c.rank)
	if !c.yield(struct{}{}) {
		c.halted = w.halt
	}
}

// finish returns once s's job has run: the driver claims and runs it,
// or, if the helper got there first, runs the unstarted jobs of the
// ranks queued behind it and then waits for the helper.
func (w *World) finish(s *jobSlot) {
	if s.state.CompareAndSwap(jobPosted, jobIdle) {
		s.job.Run()
		return
	}
	for i := 0; i < w.nready && s.state.Load() == jobRunning; i++ {
		at := w.head + i
		if at >= w.n {
			at -= w.n
		}
		if o := &w.ranks[w.ready[at]].job; o.state.CompareAndSwap(jobPosted, jobIdle) {
			o.job.Run()
		}
	}
	for spins := 0; s.state.Load() == jobRunning; spins++ {
		if spins >= driverSpins {
			runtime.Gosched()
		}
	}
}

// finishAll is finish for every rank: no job outlives Wait.
func (w *World) finishAll() {
	for r := range w.ranks {
		if s := &w.ranks[r].job; s.state.Load() != jobIdle {
			w.finish(s)
		}
	}
}

const (
	// driverSpins bounds the driver's busy wait for the helper before it
	// starts yielding its thread between checks.
	driverSpins = 1 << 10
	// helperSpins bounds how many times the idle helper polls its box,
	// yielding its thread every helperYieldEvery polls, before it
	// parks: long enough to stay hot across the gaps between a solve's
	// kernels, so a posted job is not left waiting on a wake-up. A
	// yield takes the scheduler's lock, which Offload's one read of
	// GOMAXPROCS per Wait also takes, so it is rare.
	helperSpins      = 1 << 16
	helperYieldEvery = 1 << 8
)

// inWait counts the worlds inside Wait, process-wide. The helper takes
// work only while it is below GOMAXPROCS: a pool that drives one world
// per core has no core to lend.
var inWait atomic.Int32

// helper is the process's one helper thread, started by the first
// offer and never stopped (when idle it parks). box holds the job slot
// it was offered (nil when free); asleep says it is parked on wake.
var helper struct {
	once   sync.Once
	box    atomic.Pointer[jobSlot]
	asleep atomic.Bool
	wake   chan struct{}
}

// offer hands a freshly posted job slot of the given rank to the
// helper, starting it if need be; procs is GOMAXPROCS as the world's
// Wait read it. Rank 0's jobs stay on the driver, so the driver has a
// job of its own to run while the helper runs another (at P = 2, rank
// 0's on the driver and rank 1's on the helper). The offer is dropped
// if the helper is busy, and not made at all on one P or while as many
// worlds are inside Wait as there are Ps; the driver then runs the job
// itself.
func offer(s *jobSlot, rank, procs int) {
	if rank == 0 || procs < 2 || int(inWait.Load()) >= procs {
		return
	}
	helper.once.Do(func() {
		helper.wake = make(chan struct{}, 1)
		go helperLoop()
	})
	if helper.box.CompareAndSwap(nil, s) && helper.asleep.Load() {
		select {
		case helper.wake <- struct{}{}:
		default:
		}
	}
}

// helperLoop runs the jobs offered to the helper. A job the driver
// claimed first is skipped: its slot is no longer posted.
func helperLoop() {
	for {
		s := helperNext()
		if s.state.CompareAndSwap(jobPosted, jobRunning) {
			s.job.Run()
			s.state.Store(jobIdle)
		}
		helper.box.Store(nil)
	}
}

// helperNext waits for an offered slot: it polls the box, then parks.
// A poster that fills the box after the last poll sees asleep set and
// sends a wake-up; one that filled it before is caught by the poll
// after asleep is set.
func helperNext() *jobSlot {
	for {
		for i := 1; i <= helperSpins; i++ {
			if s := helper.box.Load(); s != nil {
				return s
			}
			if i%helperYieldEvery == 0 {
				runtime.Gosched()
			}
		}
		helper.asleep.Store(true)
		if helper.box.Load() == nil {
			<-helper.wake
		}
		helper.asleep.Store(false)
	}
}
