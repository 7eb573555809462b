package precond

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/problems"
)

// applyThreeLoops is (*Chebyshev).ApplyInto as it stood before its
// vector work was fused into chebyshevStep, verbatim: per step an axpy
// into z, the operator, an axpy into the residual and the d recurrence,
// each a loop of its own with its own charge. It is the reference the
// fused ApplyInto must match bit for bit — values, clocks, ledgers and
// spans.
func (ch *Chebyshev) applyThreeLoops(r, z []float64) error {
	start := ch.c.SpanStart()
	n := ch.a.LocalLen()

	theta := (ch.hi + ch.lo) / 2
	delta := (ch.hi - ch.lo) / 2
	sigma1 := theta / delta

	res := ch.r
	copy(res, r)
	rho := 1 / sigma1
	d := ch.d
	for i := range d {
		d[i] = res[i] / theta
		z[i] = 0
	}
	ch.c.Compute(float64(n))

	for step := 0; step < ch.k; step++ {
		la.Axpy(1, d, z)
		ch.c.Compute(la.FlopsAxpy(n))
		if err := ch.a.Apply(d, ch.ad); err != nil {
			return err
		}
		la.Axpy(-1, ch.ad, res)
		ch.c.Compute(la.FlopsAxpy(n))

		rhoNew := 1 / (2*sigma1 - rho)
		coefD := rhoNew * rho
		coefR := 2 * rhoNew / delta
		for i := range d {
			d[i] = coefD*d[i] + coefR*res[i]
		}
		ch.c.Compute(3 * float64(n))
		rho = rhoNew
	}
	ch.c.SpanEnd(obs.PhasePrecondApply, start)
	return nil
}

// chebyshevTrace is everything one rank can tell about a sequence of
// preconditioner applications.
type chebyshevTrace struct {
	Z      []uint64 // z after each application
	Clock  float64
	Comm   comm.Stats
	Events []obs.Event // this rank's, in order
}

// runChebyshev applies a Chebyshev preconditioner of each degree 1…6 to
// a few right-hand sides on p ranks of a jittery machine (every charge
// draws from the noise stream, so a merged, dropped or reordered charge
// moves the clock) and returns each rank's trace. The right-hand sides
// carry signed zeros, a subnormal and infinities beside ordinary
// values.
func runChebyshev(t *testing.T, p int, apply func(ch *Chebyshev, r, z []float64) error) []chebyshevTrace {
	t.Helper()
	const g = 7 // 49 rows: uneven slabs on 3 ranks, none a multiple of four
	a := problems.Poisson2D(g, g)
	cth := math.Cos(math.Pi / float64(g+1))
	out := make([]chebyshevTrace, p)
	cfg := comm.Config{
		Ranks: p, Cost: machine.DefaultCostModel(), Seed: 5,
		Noise:    machine.UniformJitter{Frac: 0.25},
		Observer: func(ev obs.Event) { out[ev.Rank].Events = append(out[ev.Rank].Events, ev) },
	}
	err := comm.Run(cfg, func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		n := op.LocalLen()
		rng := machine.NewRNG(40 + uint64(c.Rank()))
		r, z := make([]float64, n), make([]float64, n)
		tr := &out[c.Rank()]
		for degree := 1; degree <= 6; degree++ {
			ch := NewChebyshev(c, op, 4*(1-cth), 4*(1+cth), degree)
			if err := ch.Setup(); err != nil {
				return err
			}
			for trial := 0; trial < 3; trial++ {
				for i := range r {
					r[i] = rng.NormFloat64()
				}
				switch trial {
				case 1:
					r[0], r[n-1], r[n/2] = 0, math.Copysign(0, -1), 5e-324
				case 2:
					r[1], r[n-2] = math.Inf(1), math.Inf(-1)
				}
				if err := apply(ch, r, z); err != nil {
					return err
				}
				for _, x := range z {
					if math.IsNaN(x) {
						// Which NaN an Inf − Inf leaves behind is the
						// hardware's and the compiler's business.
						x = math.NaN()
					}
					tr.Z = append(tr.Z, math.Float64bits(x))
				}
			}
		}
		tr.Clock, tr.Comm = c.Clock(), c.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChebyshevFusedMatchesThreeLoops: the fused step is the three
// loops, observably: same z, same virtual clock (hence the same charges
// in the same order against the noise stream and the halo exchanges),
// same flop and noise ledgers, same spans at the same virtual times.
func TestChebyshevFusedMatchesThreeLoops(t *testing.T) {
	for _, p := range []int{1, 3} {
		got := runChebyshev(t, p, (*Chebyshev).ApplyInto)
		want := runChebyshev(t, p, (*Chebyshev).applyThreeLoops)
		for r := range want {
			if want[r].Comm.NoiseTime == 0 || len(want[r].Events) == 0 {
				t.Fatalf("p=%d rank %d: the reference run is not the experiment it should be: %+v", p, r, want[r].Comm)
			}
			if !reflect.DeepEqual(got[r], want[r]) {
				g, w := got[r], want[r]
				t.Errorf("p=%d rank %d: fused and three-loop Chebyshev differ: z %v, clock %v vs %v, ledger %+v vs %+v, events %v",
					p, r, reflect.DeepEqual(g.Z, w.Z), g.Clock, w.Clock, g.Comm, w.Comm, reflect.DeepEqual(g.Events, w.Events))
			}
		}
	}
}

func TestChebyshevApplyDoesNotAllocate(t *testing.T) {
	a := problems.Poisson2D(7, 7)
	runSerial(t, func(c *comm.Comm) error {
		op := dist.NewCSR(c, a)
		ch := NewChebyshev(c, op, 0.3, 7.7, 4)
		if err := ch.Setup(); err != nil {
			return err
		}
		r, z := problems.OnesRHS(a.Rows), make([]float64, a.Rows)
		apply := func() {
			if err := ch.ApplyInto(r, z); err != nil {
				t.Error(err)
			}
		}
		apply()
		if n := testing.AllocsPerRun(10, apply); n != 0 {
			t.Errorf("Chebyshev.ApplyInto allocates %v times per application", n)
		}
		return nil
	})
}
