package krylov

import (
	"math"
	"reflect"
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
		hij, err := dist.Dot(c, w, v[i])
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
// unroll.
func runMGS(t *testing.T, p int, orth orthogonaliser) []mgsTrace {
	t.Helper()
	out := make([]mgsTrace, p)
	cfg := comm.Config{
		Ranks: p, Cost: machine.DefaultCostModel(), Seed: 11,
		Noise:    machine.UniformJitter{Frac: 0.25},
		Observer: func(ev obs.Event) { out[ev.Rank].Events = append(out[ev.Rank].Events, ev) },
	}
	err := comm.Run(cfg, func(c *comm.Comm) error {
		n := 41 + 3*c.Rank()
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
func TestMGSMatchesUnfused(t *testing.T) {
	for _, p := range []int{1, 3} {
		got, want := runMGS(t, p, mgs), runMGS(t, p, mgsUnfused)
		for r := range want {
			if want[r].Comm.NoiseTime == 0 || want[r].Reductions != mgsSteps*(mgsSteps+3)/2 || len(want[r].Events) == 0 {
				t.Fatalf("p=%d rank %d: the reference run is not the experiment it should be: %+v", p, r, want[r].Comm)
			}
			if !reflect.DeepEqual(got[r], want[r]) {
				g, w := got[r], want[r]
				t.Errorf("p=%d rank %d: fused and unfused MGS differ: w %v, h %v, norms %v, clock %v vs %v, ledger %+v vs %+v, reductions %d vs %d, events %v",
					p, r, reflect.DeepEqual(g.W, w.W), reflect.DeepEqual(g.H, w.H), reflect.DeepEqual(g.Norms, w.Norms),
					g.Clock, w.Clock, g.Comm, w.Comm, g.Reductions, w.Reductions, reflect.DeepEqual(g.Events, w.Events))
			}
		}
	}
}

func TestMGSDoesNotAllocate(t *testing.T) {
	err := comm.Run(comm.Config{Ranks: 1, Cost: machine.DefaultCostModel(), Seed: 1}, func(c *comm.Comm) error {
		const n, j = 67, 3
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
			if _, err := mgs(c, v, w, j, h, &st); err != nil {
				t.Error(err)
			}
		}
		step() // warm-up: the world's collective pools fill
		if a := testing.AllocsPerRun(10, step); a != 0 {
			t.Errorf("mgs allocates %v times per step", a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
