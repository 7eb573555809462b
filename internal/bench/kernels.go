package bench

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/precond"
	"repro/internal/problems"
	"repro/internal/skp"
)

// Kernel is one micro-benchmark over a hot-path primitive. Setup builds
// all state once and returns the measured body (run n repetitions) plus
// a cleanup. The same definitions drive both the root `go test -bench`
// suite and cmd/benchdiff's harness, so the two always measure the same
// thing — and the allocation gates in CI watch exactly these bodies.
type Kernel struct {
	Name  string
	Setup func() (body func(n int), cleanup func())
}

// Kernels returns the kernel micro-benchmark registry. Names are stable:
// they key the BENCH_*.json perf baselines.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "kernel/spmv-poisson2d-256", Setup: spmvKernel},
		{Name: "kernel/dot-65536", Setup: dotKernel},
		{Name: "kernel/bitflip-pass-4096", Setup: bitflipKernel},
		{Name: "kernel/skp-check-suite", Setup: checkSuiteKernel},
		{Name: "kernel/skp-checked-apply", Setup: checkedApplyKernel},
		{Name: "kernel/gmres-serial-iter", Setup: gmresIterKernel},
		{Name: "kernel/dist-csr-apply-p4", Setup: distCSRApplyKernel},
		{Name: "kernel/dist-gmres-iter-p4", Setup: distGMRESIterKernel},
		{Name: "kernel/comm-allreduce-p8", Setup: func() (func(int), func()) { return allreduceKernel(8) }},
		{Name: "kernel/comm-allreduce-p64", Setup: func() (func(int), func()) { return allreduceKernel(64) }},
		{Name: "kernel/precond-bjacobi-apply-p4", Setup: bjacobiApplyKernel},
		{Name: "kernel/precond-chebyshev-apply-p4", Setup: chebyshevApplyKernel},
		{Name: "kernel/obs-disabled-telemetry", Setup: obsDisabledKernel},
		{Name: "kernel/obs-disabled-span", Setup: obsDisabledSpanKernel},
		{Name: "kernel/comm-disabled-span-p4", Setup: commDisabledSpanKernel},
		{Name: "kernel/obs-enabled-metrics", Setup: obsEnabledKernel},
	}
}

func spmvKernel() (func(n int), func()) {
	a := problems.Poisson2D(256, 256)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i % 17)
	}
	y := make([]float64, a.Rows)
	return func(n int) {
		for i := 0; i < n; i++ {
			a.MatVec(x, y)
		}
	}, func() {}
}

func dotKernel() (func(n int), func()) {
	x := make([]float64, 1<<16)
	y := make([]float64, 1<<16)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(len(x) - i)
	}
	sink := 0.0
	return func(n int) {
		for i := 0; i < n; i++ {
			sink += la.Dot(x, y)
		}
	}, func() { _ = sink }
}

func bitflipKernel() (func(n int), func()) {
	v := make([]float64, 4096)
	inj, err := fault.Serial(fault.Plan{Seed: 1, Entries: []fault.Entry{fault.Sustained(fault.SiteApply, 1e-3)}}, len(v))
	if err != nil {
		panic(err)
	}
	for i := range v {
		v[i] = float64(i)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			_ = inj.Enter(fault.SiteApply, -1) // a serial plan holds no kill
			inj.Corrupt(fault.SiteApply, v)
		}
	}, func() {}
}

func checkSuiteKernel() (func(n int), func()) {
	a := problems.ConvDiff2D(64, 64, 20, 10)
	op := krylov.NewCSROp(a)
	cs := a.ColSums()
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = 1 + float64(i%5)
	}
	y := a.MatVec(x, nil)
	checks := []skp.Check{skp.NonFinite{}, skp.NormBound{ANormInf: op.NormInf()}, skp.Checksum{ColSums: cs}}
	return func(n int) {
		for i := 0; i < n; i++ {
			for _, c := range checks {
				if err := c.Validate(x, y); err != nil {
					panic(err)
				}
			}
		}
	}, func() {}
}

func checkedApplyKernel() (func(n int), func()) {
	a := problems.ConvDiff2D(64, 64, 20, 10)
	op := krylov.NewCSROp(a)
	co := skp.NewCheckedOp(op, op)
	co.Checks = append(co.Checks, skp.Checksum{ColSums: a.ColSums()})
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = 1 + float64(i%5)
	}
	y := make([]float64, op.Size())
	return func(n int) {
		for i := 0; i < n; i++ {
			co.Apply(x, y)
		}
	}, func() {}
}

// gmresIterKernel measures one steady-state GMRES(30) iteration: the
// solve runs exactly n Arnoldi steps (the tolerance is unreachable) over
// a reusable workspace, so after warm-up allocs/op is exactly 0 — the
// zero-allocation gate of this PR's hot-path work.
func gmresIterKernel() (func(n int), func()) {
	const maxChunk = 1 << 20 // bounds the workspace's residual history
	a := problems.ConvDiff2D(32, 32, 20, 10)
	op := krylov.NewCSROp(a)
	rhs, _ := problems.ManufacturedRHS(a)
	x := make([]float64, op.Size())
	opts := krylov.GMRESOptions{Restart: 30, Tol: 1e-300, MaxIter: maxChunk}
	ws := krylov.NewGMRESWorkspace(op.Size(), opts)
	return func(n int) {
		la.Zero(x)
		for n > 0 {
			o := opts
			o.MaxIter = min(n, maxChunk)
			if _, err := krylov.GMRESInto(op, rhs, x, ws, o); err != nil {
				panic(err)
			}
			n -= o.MaxIter
		}
	}, func() {}
}

// spmdKernel runs a persistent p-rank world whose ranks execute one
// collective benchmark body in lock step: every rank builds its state
// (operators, workspaces) with setup and parks; body(n) hands the
// parked ranks the repetition count and drives the world until they
// have all parked again, so per-op cost excludes world construction.
func spmdKernel(p int, setup func(c *comm.Comm) func(n int) error) (func(n int), func()) {
	w := comm.NewWorld(comm.Config{Ranks: p, Cost: machine.DefaultCostModel(), Seed: 1})
	reps := 0 // what the released ranks run next; negative = exit
	for r := 0; r < p; r++ {
		w.Spawn(r, 0, func(c *comm.Comm) error {
			body := setup(c)
			for {
				if err := c.Park(); err != nil {
					return err
				}
				if reps < 0 {
					return nil
				}
				if err := body(reps); err != nil {
					// Kernels run the fault-free path; an error here is
					// a harness bug.
					panic(fmt.Sprintf("bench kernel rank %d: %v", c.Rank(), err))
				}
			}
		})
	}
	step := func(n int) {
		reps = n
		for r := 0; r < p; r++ {
			w.Release(r)
		}
		w.Wait()
	}
	w.Wait() // run every rank's setup up to its first Park
	return step, func() { step(-1) }
}

// distCSRApplyKernel measures the full halo-exchange SpMV across a
// 4-rank world (one op = one collective Apply over all ranks). With the
// recv-into halo buffers and the world-side payload recycling this is
// allocation-free in steady state.
func distCSRApplyKernel() (func(n int), func()) {
	return spmdKernel(4, func(c *comm.Comm) func(n int) error {
		a := problems.Poisson2D(64, 64)
		m := dist.NewCSR(c, a)
		x := make([]float64, m.LocalLen())
		for i := range x {
			x[i] = float64((m.Lo() + i) % 17)
		}
		y := make([]float64, m.LocalLen())
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := m.Apply(x, y); err != nil {
					return err
				}
			}
			return nil
		}
	})
}

// distGMRESIterKernel measures one distributed GMRES(MGS) iteration at
// P=4: each op is one Arnoldi step including its halo exchange and j+1
// blocking reductions (per-solve setup amortises away as n grows).
func distGMRESIterKernel() (func(n int), func()) {
	return spmdKernel(4, func(c *comm.Comm) func(n int) error {
		op := dist.NewStencil3(c, 4*512, -1, 2.5, -1)
		b := make([]float64, op.LocalLen())
		for i := range b {
			b[i] = 1
		}
		return func(n int) error {
			_, _, err := krylov.DistGMRES(c, op, b, nil, krylov.DistGMRESOptions{
				Restart: 30, Tol: 1e-300, MaxIter: n,
			})
			return err
		}
	})
}

// bjacobiApplyKernel measures one warmed-up block-Jacobi ILU(0)
// application at P=4: two triangular sweeps over the local block, zero
// communication — and, gated by the perf baseline, zero allocs/op.
func bjacobiApplyKernel() (func(n int), func()) {
	return spmdKernel(4, func(c *comm.Comm) func(n int) error {
		a := problems.Poisson2D(64, 64)
		m := precond.NewBlockJacobiILU(c, a)
		if err := m.Setup(); err != nil {
			panic(err)
		}
		pt := dist.Partition{N: a.Rows, P: c.Size()}
		lo, hi := pt.Range(c.Rank())
		r := make([]float64, hi-lo)
		for i := range r {
			r[i] = 1 + float64((lo+i)%7)
		}
		z := make([]float64, hi-lo)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := m.ApplyInto(r, z); err != nil {
					return err
				}
			}
			return nil
		}
	})
}

// chebyshevApplyKernel measures one warmed-up degree-4 Chebyshev
// polynomial application at P=4: four halo-exchange SpMVs plus the
// vector recurrence, no reductions, zero allocs/op in steady state.
func chebyshevApplyKernel() (func(n int), func()) {
	return spmdKernel(4, func(c *comm.Comm) func(n int) error {
		a := problems.Poisson2D(64, 64)
		op := dist.NewCSR(c, a)
		// Exact spectral bounds of the 5-point Laplacian.
		lmin := 4 * (1 - math.Cos(math.Pi/65))
		lmax := 4 * (1 + math.Cos(math.Pi/65))
		m := precond.NewChebyshev(c, op, lmin, lmax, 4)
		if err := m.Setup(); err != nil {
			panic(err)
		}
		r := make([]float64, op.LocalLen())
		for i := range r {
			r[i] = 1 + float64(i%7)
		}
		z := make([]float64, op.LocalLen())
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := m.ApplyInto(r, z); err != nil {
					return err
				}
			}
			return nil
		}
	})
}

// obsDisabledKernel measures the disabled-telemetry path: every obs
// sink is nil (the state a solve runs in when no registry or tracer is
// attached), and one op is the full set of sink calls an instrumented
// hot path would make. The allocs/op gate pins this at exactly 0 —
// disabled observability must cost nothing but a nil check.
func obsDisabledKernel() (func(n int), func()) {
	var (
		c  *obs.Counter
		g  *obs.Gauge
		h  *obs.Histogram
		tr *obs.RunTracer
	)
	return func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
			g.Set(float64(i))
			h.Observe(float64(i))
			if tr != nil { // hot paths skip building the event, not just recording it
				tr.Observe(obs.Event{T: float64(i), Name: obs.EventIteration, Iter: i})
			}
		}
	}, func() {}
}

// obsDisabledSpanKernel measures the disabled-span path: the nil
// tracer handed, unguarded, the span events an instrumented solve emits
// in every inner loop — two plain, one wait-attributed, the same three
// per op BENCH_baseline.json was recorded with. Events are plain
// values, so with a nil tracer one op must be exactly 0 allocs (the
// gate in TestObsKernelsAllocationFree pins it).
func obsDisabledSpanKernel() (func(n int), func()) {
	var tr *obs.RunTracer
	return func(n int) {
		for i := 0; i < n; i++ {
			tr.Observe(obs.Event{T: float64(i), Name: obs.EventSpan, Attempt: 1, Dur: 1, Detail: obs.PhaseSpMV})
			tr.Observe(obs.Event{T: float64(i), Name: obs.EventSpan, Attempt: 1, Dur: 1, Detail: obs.PhaseAllreduce})
			tr.Observe(obs.Event{T: float64(i), Name: obs.EventSpan, Attempt: 1, Dur: 1, Wait: 0.5, Detail: obs.PhaseHaloExchange})
		}
	}, func() {}
}

// commDisabledSpanKernel measures the disabled-span path at the comm
// layer: every rank of a 4-rank world with no Config.Observer
// runs the full bracket an instrumented phase pays — SpanStart,
// WaitMark, a clock advance standing in for the phase body, SpanEndWait
// and SpanEnd. With no observer the bracket must collapse to clock and
// field reads: 0 allocs/op, gated by TestObsKernelsAllocationFree, so
// the all-rank span capture can never tax untraced runs.
func commDisabledSpanKernel() (func(n int), func()) {
	return spmdKernel(4, func(c *comm.Comm) func(n int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				start := c.SpanStart()
				mark := c.WaitMark()
				c.AdvanceClock(1e-9)
				c.SpanEndWait(obs.PhaseAllreduce, start, mark)
				c.SpanEnd(obs.PhaseSpMV, start)
			}
			return nil
		}
	})
}

// obsEnabledKernel measures live metric updates: one op is a counter
// increment plus a histogram observation on a 13-bucket latency layout
// — the per-run accounting the solve service does. Atomics only, so
// this is also allocation-free.
func obsEnabledKernel() (func(n int), func()) {
	r := obs.NewRegistry()
	c := r.Counter("bench_ops_total", "ops")
	h := r.Histogram("bench_latency_seconds", "latency", obs.LatencyBuckets())
	return func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
			h.Observe(float64(i%16) * 0.001)
		}
	}, func() {}
}

// allreduceKernel measures one blocking scalar all-reduce across a
// p-rank world — the synchronisation primitive every Krylov reduction
// pays for, at two world sizes so a rendezvous-cost regression that
// scales with rank count stays visible. Zero allocs/op: the collective
// slots, storage included, are recycled.
func allreduceKernel(p int) (func(n int), func()) {
	return spmdKernel(p, func(c *comm.Comm) func(n int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := c.AllreduceScalar(1, comm.OpSum); err != nil {
					return err
				}
			}
			return nil
		}
	})
}
