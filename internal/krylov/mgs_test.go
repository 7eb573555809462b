package krylov

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
)

// mgsUnfused is the modified Gram–Schmidt loop DistGMRES and DistFGMRES
// each carried before mgs replaced them, verbatim: a blocking dot and a
// separate axpy per basis vector, then the norm. It is the reference
// mgs must match bit for bit — values, clocks, ledgers and spans.
func mgsUnfused(c *comm.Comm, v [][]float64, w []float64, j int, h *la.Dense, st *Stats) (float64, error) {
	span := c.SpanStart()
	for i := 0; i <= j; i++ {
		local := la.Dot(w, v[i])
		c.Compute(la.FlopsDot(len(w)))
		hij, err := c.AllreduceScalar(local, comm.OpSum)
		if err != nil {
			return 0, err
		}
		st.Reductions++
		h.Set(i, j, hij)
		dist.Axpy(c, -hij, v[i], w)
	}
	hj1, err := dist.Norm2(c, w)
	if err != nil {
		return 0, err
	}
	st.Reductions++
	c.SpanEnd(obs.PhaseOrthogonalize, span)
	return hj1, nil
}

type orthogonaliser func(c *comm.Comm, v [][]float64, w []float64, j int, h *la.Dense, st *Stats) (float64, error)

// mgsTrace is everything one rank can tell about a sequence of
// orthogonalisation steps.
type mgsTrace struct {
	W, H, Norms []uint64 // w after each step, the Hessenberg columns, the returned norms
	Clock       float64
	Comm        comm.Stats
	Reductions  int
	Events      []obs.Event // this rank's, in order
}

const mgsSteps = 6

// runMGS runs mgsSteps Arnoldi-like orthogonalisation steps with orth on
// p ranks of a jittery machine (every charge draws from the noise
// stream, so a merged, dropped or reordered charge moves the clock) and
// returns each rank's trace. Slabs are uneven and not a multiple of the
// unroll: rank r holds n0 + 3r rows.
func runMGS(t *testing.T, p, n0 int, orth orthogonaliser) []mgsTrace {
	t.Helper()
	out := make([]mgsTrace, p)
	cfg := comm.Config{
		Ranks: p, Cost: machine.DefaultCostModel(), Seed: 11,
		Noise:    machine.UniformJitter{Frac: 0.25},
		Observer: func(ev obs.Event) { out[ev.Rank].Events = append(out[ev.Rank].Events, ev) },
	}
	err := comm.Run(cfg, func(c *comm.Comm) error {
		n := n0 + 3*c.Rank()
		rng := machine.NewRNG(100 + uint64(c.Rank()))
		v := make([][]float64, mgsSteps+1)
		for i := range v {
			v[i] = make([]float64, n)
			for k := range v[i] {
				v[i][k] = rng.NormFloat64()
			}
		}
		w := make([]float64, n)
		h := la.NewDense(mgsSteps+1, mgsSteps)
		var st Stats
		tr := &out[c.Rank()]
		for j := 0; j < mgsSteps; j++ {
			for k := range w {
				w[k] = rng.NormFloat64()
			}
			hj1, err := orth(c, v, w, j, h, &st)
			if err != nil {
				return err
			}
			tr.Norms = append(tr.Norms, math.Float64bits(hj1))
			for _, x := range w {
				tr.W = append(tr.W, math.Float64bits(x))
			}
			for i := 0; i <= j; i++ {
				tr.H = append(tr.H, math.Float64bits(h.At(i, j)))
			}
		}
		tr.Clock, tr.Comm, tr.Reductions = c.Clock(), c.Stats(), st.Reductions
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMGSMatchesUnfused: the fused orthogonaliser is the unfused one,
// observably: same w, same Hessenberg column, same norm, same virtual
// clock (hence the same charges in the same order against the noise
// stream), same flop and noise ledgers, same reduction count and the
// same span and all-reduce events at the same virtual times.
// Thin slabs run the passes inline, fat ones (comm.OffloadRows rows
// and more) through Offload's helper threads: Offload moves where a
// pass runs, not what it computes or charges.
func TestMGSMatchesUnfused(t *testing.T) {
	fused := func(c *comm.Comm, v [][]float64, w []float64, j int, h *la.Dense, st *Stats) (float64, error) {
		return mgs(c, new(slabJob), v, w, j, h, st)
	}
	for _, n0 := range []int{41, comm.OffloadRows} {
		for _, p := range []int{1, 3} {
			checkMGS(t, p, n0, runMGS(t, p, n0, fused), runMGS(t, p, n0, mgsUnfused))
		}
	}
}

func checkMGS(t *testing.T, p, n0 int, got, want []mgsTrace) {
	t.Helper()
	for r := range want {
		if want[r].Comm.NoiseTime == 0 || want[r].Reductions != mgsSteps*(mgsSteps+3)/2 || len(want[r].Events) == 0 {
			t.Fatalf("p=%d, %d rows: rank %d: the reference run is not the experiment it should be: %+v", p, n0, r, want[r].Comm)
		}
		if !reflect.DeepEqual(got[r], want[r]) {
			g, w := got[r], want[r]
			t.Errorf("p=%d, %d rows: rank %d: fused and unfused MGS differ: w %v, h %v, norms %v, clock %v vs %v, ledger %+v vs %+v, reductions %d vs %d, events %v",
				p, n0, r, reflect.DeepEqual(g.W, w.W), reflect.DeepEqual(g.H, w.H), reflect.DeepEqual(g.Norms, w.Norms),
				g.Clock, w.Clock, g.Comm, w.Comm, g.Reductions, w.Reductions, reflect.DeepEqual(g.Events, w.Events))
		}
	}
}

// TestMGSDoesNotAllocate: a thin slab runs mgs inline and a fat one
// (comm.OffloadRows rows, on two ranks so the passes can overlap)
// through Offload; neither allocates per step. The fat slab's count is
// read around rank 0's steps rather than by testing.AllocsPerRun,
// which would pin GOMAXPROCS to 1 and so keep the helper threads out
// of the measurement, and the cheapest of several windows counts: a
// helper that parks, or is woken onto a new thread, can refill one of
// the runtime's own caches once, which is no cost of a step.
func TestMGSDoesNotAllocate(t *testing.T) {
	t.Run("thin", func(t *testing.T) { mgsAllocs(t, 1, 67, false) })
	t.Run("fat", func(t *testing.T) { mgsAllocs(t, 2, comm.OffloadRows, true) })
}

func mgsAllocs(t *testing.T, ranks, n int, fat bool) {
	const windows, steps = 5, 10
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	err := comm.Run(comm.Config{Ranks: ranks, Cost: machine.DefaultCostModel(), Seed: 1}, func(c *comm.Comm) error {
		const j = 3
		kern := new(slabJob)
		v := make([][]float64, j+1)
		for i := range v {
			v[i] = make([]float64, n)
			v[i][i] = 1
		}
		w := make([]float64, n)
		h := la.NewDense(j+2, j+1)
		var st Stats
		step := func() {
			for k := range w {
				w[k] = float64(k%7) - 3
			}
			if _, err := mgs(c, kern, v, w, j, h, &st); err != nil {
				t.Error(err)
			}
		}
		step() // warm-up: the world's collective pools fill
		if !fat {
			if a := testing.AllocsPerRun(10, step); a != 0 {
				t.Errorf("mgs allocates %v times per step", a)
			}
			return nil
		}
		// On two ranks, one that runs a reduction ahead opens one more
		// slot; and the helper starts.
		step()
		for range windows {
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for range steps {
				step()
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fat && least != 0 {
		t.Errorf("mgs on %d rows allocates %v times in %d steps", n, least, steps)
	}
}
