package fault

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/machine"
)

func TestFlipBitInvolutionProperty(t *testing.T) {
	f := func(x float64, bitRaw uint8) bool {
		bit := int(bitRaw % 64)
		return FlipBit(FlipBit(x, bit), bit) == x ||
			(math.IsNaN(x) && math.IsNaN(FlipBit(FlipBit(x, bit), bit)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipBitChangesValue(t *testing.T) {
	for bit := 0; bit < 64; bit++ {
		if FlipBit(1.5, bit) == 1.5 {
			t.Errorf("bit %d flip had no effect", bit)
		}
	}
}

func TestBitClassRanges(t *testing.T) {
	rng := machine.NewRNG(1)
	cases := []struct {
		class  BitClass
		lo, hi int
	}{
		{Sign, 63, 63},
		{Exponent, 52, 62},
		{MantissaHigh, 26, 51},
		{MantissaLow, 0, 25},
		{AnyBit, 0, 63},
	}
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			b := c.class.PickBit(rng)
			if b < c.lo || b > c.hi {
				t.Fatalf("%v picked bit %d outside [%d, %d]", c.class, b, c.lo, c.hi)
			}
		}
	}
}

func TestExponentFlipIsCatastrophic(t *testing.T) {
	// Flipping the top exponent bit of a normal number changes its
	// magnitude enormously — the class detectors rely on this.
	x := 3.7
	y := FlipBit(x, 62)
	ratio := math.Abs(y / x)
	if ratio > 1e-100 && ratio < 1e100 {
		t.Errorf("high exponent flip ratio only %g", ratio)
	}
}

// serial binds p to an n-element vector, failing the test on an error.
func serial(t *testing.T, p Plan, n int) *Injector {
	t.Helper()
	in, err := Serial(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// pass is one serial occurrence of site over v.
func pass(in *Injector, site string, v []float64) {
	_ = in.Enter(site, -1) // a serial plan holds no kill
	in.Corrupt(site, v)
}

func TestVectorInjectorOneShot(t *testing.T) {
	in := serial(t, Plan{Seed: 42, Entries: []Entry{OneShot(SiteApply, 3, Exponent)}}, 4)
	v := []float64{1, 2, 3, 4}
	for iter := 0; iter < 6; iter++ {
		pass(in, SiteApply, v)
	}
	if in.Run().Flips() != 1 {
		t.Fatalf("one-shot injected %d faults", in.Run().Flips())
	}
	ev := in.Run().Strikes()
	if len(ev) != 1 || ev[0].At != 3 || ev[0].Kind != Flip {
		t.Fatalf("strike log wrong: %+v", ev)
	}
	if ev[0].Bit < 52 || ev[0].Bit > 62 {
		t.Errorf("exponent class flipped bit %d", ev[0].Bit)
	}
	// Today's draw order: the element, then the bit, from the stream
	// seeded Seed + rank.
	rng := machine.NewRNG(42)
	if idx, bit := rng.Intn(4), Exponent.PickBit(rng); ev[0].Index != idx || ev[0].Bit != bit {
		t.Errorf("struck element %d bit %d, want %d bit %d", ev[0].Index, ev[0].Bit, idx, bit)
	}
}

func TestVectorInjectorRate(t *testing.T) {
	in := serial(t, Plan{Seed: 7, Entries: []Entry{Sustained(SiteApply, 0.5)}}, 10000)
	v := make([]float64, 10000)
	pass(in, SiteApply, v)
	if n := in.Run().Flips(); n < 4500 || n > 5500 {
		t.Errorf("rate 0.5 injected %d/10000", n)
	}
	// A rate flips on every occurrence, and never at another site.
	pass(in, SitePrecond, v)
	pass(in, SiteApply, v)
	if n := in.Run().Flips(); n < 9000 || n > 11000 {
		t.Errorf("two passes at rate 0.5 injected %d/20000", n)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	v := []float64{1, 2}
	if err := in.Enter(SiteApply, -1); err != nil {
		t.Fatal(err)
	}
	in.Corrupt(SiteApply, v)
	if v[0] != 1 || v[1] != 2 {
		t.Error("nil injector must be a no-op")
	}
}

// steps runs every rank of a world over the steps of seq — Enter, then
// Corrupt of a fresh vector — and returns each rank's error.
func steps(r *Run, ranks int, seq []int) []error {
	w := comm.NewWorld(comm.Config{Ranks: ranks, Cost: machine.DefaultCostModel()})
	for q := 0; q < ranks; q++ {
		w.Spawn(q, 0, func(c *comm.Comm) error {
			in := r.Rank(c)
			for _, s := range seq {
				if err := in.Enter(SiteStep, s); err != nil {
					return err
				}
				in.Corrupt(SiteStep, make([]float64, 4))
			}
			return nil
		})
	}
	return w.Wait()
}

func TestStepKillerFiresOnce(t *testing.T) {
	r, err := NewRun(Plan{Entries: []Entry{{Kind: Kill, Rank: 2, Site: SiteStep, At: 5}}}, 4, func(int) int { return 4 })
	if err != nil {
		t.Fatal(err)
	}
	for q, err := range steps(r, 4, []int{3, 4, 5, 6}) {
		if (q == 2) != errors.Is(err, comm.ErrKilled) {
			t.Errorf("rank %d: %v", q, err)
		}
	}
	// The replacement shares the run: re-executing step 5 runs clean.
	for q, err := range steps(r, 4, []int{5, 6}) {
		if err != nil {
			t.Errorf("rank %d fired twice: %v", q, err)
		}
	}
	if ks := r.Strikes(); len(ks) != 1 || ks[0].Rank != 2 || ks[0].At != 5 {
		t.Errorf("strikes %+v", ks)
	}
}

func TestScheduleMultipleKills(t *testing.T) {
	p := Plan{Entries: []Entry{
		{Kind: Kill, Rank: 0, Site: SiteStep, At: 1},
		{Kind: Kill, Rank: 3, Site: SiteStep, At: 9},
	}}
	// Each run of one plan fires afresh.
	for run := 0; run < 2; run++ {
		r, err := NewRun(p, 4, func(int) int { return 4 })
		if err != nil {
			t.Fatal(err)
		}
		errs := steps(r, 4, []int{0, 1, 9})
		for q, err := range errs {
			if (q == 0 || q == 3) != errors.Is(err, comm.ErrKilled) {
				t.Errorf("run %d rank %d: %v", run, q, err)
			}
		}
	}
}

// TestDrawnKillMatchesMTBFDraw: a drawn kill's victim and strike come
// from Seed^killSalt, victim first, and strike on occurrence
// int(Exp·MTBF) — the 1+int(Exp·MTBF)-th apply.
func TestDrawnKillMatchesMTBFDraw(t *testing.T) {
	const seed, mtbf, ranks = 99, 40.0, 4
	r, err := NewRun(Plan{Seed: seed, Entries: []Entry{{Kind: Kill, Rank: Drawn, Site: SiteApply, MTBF: mtbf}}}, ranks, func(int) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	rng := machine.NewRNG(seed ^ killSalt)
	victim := rng.Intn(ranks)
	at := int(rng.ExpFloat64() * mtbf)
	if e := r.entries[0]; e.Rank != victim || e.At != at {
		t.Fatalf("drew rank %d at %d, want %d at %d", e.Rank, e.At, victim, at)
	}
}

// TestStreamPerRankAndSite: rank r's stream at a site is seeded Seed +
// the site's offset + r, so two sites of one rank, and two ranks at one
// site, never share draws.
func TestStreamPerRankAndSite(t *testing.T) {
	p := Plan{Seed: 5, Entries: []Entry{Sustained(SiteApply, 1), Sustained(SitePrecond, 1)}}
	r, err := NewRun(p, 3, func(int) int { return 8 })
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(comm.Config{Ranks: 3, Cost: machine.DefaultCostModel()})
	for q := 0; q < 3; q++ {
		w.Spawn(q, 0, func(c *comm.Comm) error {
			in := r.Rank(c)
			for _, site := range []string{SiteApply, SitePrecond} {
				v := make([]float64, 8)
				in.Corrupt(site, v)
				rng := machine.NewRNG(5 + uint64(c.Rank()) + map[string]uint64{SiteApply: 0, SitePrecond: 1 << 16}[site])
				for i := range v {
					rng.Float64()
					if want := FlipBit(0, AnyBit.PickBit(rng)); v[i] != want {
						t.Errorf("rank %d %s element %d: %g, want %g", c.Rank(), site, i, v[i], want)
					}
				}
			}
			return nil
		})
	}
	w.Wait()
}

// TestPlanRejectsStrikesThatCannotFire: a strike that could not fire as
// written is an error, not a silent no-op.
func TestPlanRejectsStrikesThatCannotFire(t *testing.T) {
	flip := func(rank, index, bit int) Entry {
		return Entry{Kind: Flip, Rank: rank, Site: SiteStep, At: 3, Index: index, Bit: bit}
	}
	for _, e := range []Entry{
		flip(1, 0, 64), flip(1, 0, -1), flip(9, 0, 3), flip(Every, 4, 3), flip(1, -3, 3),
		{Kind: Kill, Rank: 4, Site: SiteStep},
		{Kind: Kill, Rank: 0, Site: SiteStep, At: -1},
		{Kind: Kill, Rank: Drawn, Site: SiteApply},
		{Kind: FlipRate, Rank: Every, Site: SiteApply, Rate: 1.5},
		{Kind: Flip, Rank: 0, Site: "halo", Index: Drawn, Bit: 3},
		{Kind: Flip, Rank: 0, Site: SiteApply, Index: Drawn, Bit: Drawn, Class: 9},
		{Kind: 7, Rank: 0, Site: SiteApply},
	} {
		if _, err := NewRun(Plan{Entries: []Entry{e}}, 4, func(int) int { return 4 }); err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("%+v: err %v", e, err)
		}
	}
	if _, err := Serial(Plan{Entries: []Entry{{Kind: Kill, Site: SiteApply}}}, 4); err == nil {
		t.Error("a serial plan accepted a kill")
	}
}

// FuzzPlan builds a plan from bytes: validation never panics, and a valid
// plan run over a synthetic sequence of sites fires each Flip or Kill at
// most once per rank and never touches an element outside the vector.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 3, 255, 1, 0, 62})
	f.Add([]byte{1, 2, 255, 1, 1, 0, 254, 254, 3, 40, 0, 254, 2, 0, 3, 0, 0, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ranks := 1 + int(data[0]%4)
		size := func(r int) int { return 1 + (r*3+int(data[1]))%5 }
		siteNames := []string{SiteApply, SitePrecond, SiteStep, "bogus"}
		p := Plan{Seed: uint64(data[1])}
		for b := data[2:]; len(b) >= 8 && len(p.Entries) < 32; b = b[8:] {
			p.Entries = append(p.Entries, Entry{
				Kind: Kind(b[0] % 4), Rank: int(int8(b[1])) % 6, Site: siteNames[b[2]%4], At: int(int8(b[3])) % 8,
				Index: int(int8(b[4])) % 8, Bit: int(int8(b[5])), Class: BitClass(int(b[6]%7) - 1),
				Rate: float64(b[7]) / 200, MTBF: float64(b[7]) / 16,
			})
		}
		r, err := NewRun(p, ranks, size)
		if err != nil {
			return
		}
		w := comm.NewWorld(comm.Config{Ranks: ranks, Cost: machine.DefaultCostModel()})
		for q := 0; q < ranks; q++ {
			w.Spawn(q, 0, func(c *comm.Comm) error {
				in := r.Rank(c)
				n := size(c.Rank())
				buf := make([]float64, n+2)
				for step := 0; step < 8; step++ {
					for _, site := range siteNames[:3] {
						k := -1
						if site == SiteStep {
							k = step % 5 // steps repeat, as after a rollback
						}
						if err := in.Enter(site, k); err != nil {
							return err
						}
						in.Corrupt(site, buf[1:n+1:n+1])
						if buf[0] != 0 || buf[n+1] != 0 {
							t.Errorf("rank %d: %s wrote outside its %d elements", c.Rank(), site, n)
							return nil
						}
					}
				}
				return nil
			})
		}
		w.Wait()
		fired := map[[2]int]bool{}
		for _, s := range r.Strikes() {
			if key := [2]int{s.Entry, s.Rank}; fired[key] {
				t.Fatalf("entry %d fired twice on rank %d", s.Entry, s.Rank)
			} else {
				fired[key] = true
			}
		}
	})
}

func TestPoissonProcessMean(t *testing.T) {
	p := NewPoissonProcess(100, 4)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Next()
	}
	if mean := sum / n; math.Abs(mean-100) > 2 {
		t.Errorf("MTBF mean %v, want ~100", mean)
	}
}
