package fault

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Plan is a fault scenario as plain data: which faults strike which rank,
// at which site, at which occurrence of it. The zero Plan injects
// nothing. A plan holds no state — the Run that fires it does — so one
// plan describes any number of runs.
type Plan struct {
	Seed    uint64 // roots every draw: see the streams of Injector.Corrupt and NewRun
	Entries []Entry
}

// Entry is one fault of a plan: what × rank × site × when.
type Entry struct {
	Kind Kind
	Rank int    // the rank struck, Every, or Drawn (a Kill with MTBF)
	Site string // SiteApply, SitePrecond or SiteStep
	At   int    // Flip, Kill: the occurrence of Site on Rank it fires at

	Index int      // Flip: the element, or Drawn
	Bit   int      // Flip: the bit 0…63, or Drawn
	Class BitClass // Flip with Bit Drawn: the class the bit is drawn from

	Rate float64 // FlipRate: the per-element flip probability per occurrence
	MTBF float64 // Kill with Rank Drawn: the mean occurrences before the strike
}

// Kind is what an entry does when it fires.
type Kind int

// The kinds of entry.
const (
	Flip     Kind = iota // invert one bit of one element, once per addressed rank, at occurrence At
	FlipRate             // flip each element with probability Rate, at every occurrence: sustained unreliability
	Kill                 // kill the rank at occurrence At, once, before the site does its work
)

// Wildcards for Entry's integer fields. Every, as Rank, addresses every
// rank. Drawn, as Index, draws the element from the rank's stream at the
// site; as Bit, draws the bit from Class; as a Kill's Rank, draws the
// victim and At with mean MTBF.
const (
	Every = -1
	Drawn = -2
)

// The sites an entry can address: the obs span names of the code points
// that consult a plan, and the time step, whose occurrence index is the
// step number.
const (
	SiteApply   = obs.PhaseSpMV
	SitePrecond = obs.PhasePrecondApply
	SiteStep    = "step"
)

// sites lists the sites in stream order, each with the label its
// fault_inject events carry and its stream's seed offset.
var sites = [...]struct {
	name, label string
	offset      uint64
}{{SiteApply, "bitflip", 0}, {SitePrecond, "precond", 1 << 16}, {SiteStep, "step", 2 << 16}}

// killSalt separates the drawn-kill stream from the per-rank streams.
const killSalt = 0x4b494c4c52414e4b // "KILLRANK"

// OneShot is the single-event upset of the paper's §III-A: at occurrence
// k of site, each rank flips a bit drawn from class in a drawn element.
func OneShot(site string, k int, class BitClass) Entry {
	return Entry{Kind: Flip, Rank: Every, Site: site, At: k, Index: Drawn, Bit: Drawn, Class: class}
}

// Sustained is the unreliable substrate of §II-D: every rank flips each
// element of site's vector with probability rate, at every occurrence.
func Sustained(site string, rate float64) Entry {
	return Entry{Kind: FlipRate, Rank: Every, Site: site, Rate: rate}
}

// StepKill is the hard failure of the paper's §III-C: rank dies at the
// top of time step step.
func StepKill(rank, step int) Entry {
	return Entry{Kind: Kill, Rank: rank, Site: SiteStep, At: step}
}

// StepFlip is silent corruption of a time stepper's field: at the top of
// time step step, rank flips bit bit of its local element index.
func StepFlip(rank, step, index, bit int) Entry {
	return Entry{Kind: Flip, Rank: rank, Site: SiteStep, At: step, Index: index, Bit: bit}
}

// validate checks e against a world of ranks ranks whose rank r holds
// vectors of localLen(r) elements: an entry that could not fire as
// written is an error, never a silent no-op.
func (e Entry) validate(ranks int, localLen func(rank int) int) error {
	switch {
	case siteIndex(e.Site) < 0:
		return fmt.Errorf("unknown site %q", e.Site)
	case e.Kind == Kill && e.Rank == Drawn && !(e.MTBF > 0):
		return fmt.Errorf("a drawn kill needs a positive MTBF, got %g", e.MTBF)
	case e.Kind == Kill && e.Rank == Drawn:
		return nil
	case e.Rank != Every && (e.Rank < 0 || e.Rank >= ranks):
		return fmt.Errorf("rank %d outside a world of %d", e.Rank, ranks)
	case e.Kind == FlipRate && !(e.Rate >= 0 && e.Rate <= 1):
		return fmt.Errorf("rate %g outside [0, 1]", e.Rate)
	case e.Kind == FlipRate:
		return nil
	case e.Kind != Flip && e.Kind != Kill:
		return fmt.Errorf("unknown kind %d", e.Kind)
	case e.At < 0:
		return fmt.Errorf("occurrence %d, want at least 0", e.At)
	case e.Kind == Kill:
		return nil
	case e.Bit != Drawn && (e.Bit < 0 || e.Bit > 63):
		return fmt.Errorf("bit %d outside 0…63", e.Bit)
	case e.Bit == Drawn && (e.Class < Sign || e.Class > AnyBit):
		return fmt.Errorf("unknown bit class %d", e.Class)
	}
	for r := 0; r < ranks && e.Index != Drawn; r++ {
		if n := localLen(r); (e.Rank == Every || e.Rank == r) && (e.Index < 0 || e.Index >= n) {
			return fmt.Errorf("element %d outside rank %d's %d", e.Index, r, n)
		}
	}
	return nil
}

// Run fires one plan over one world. It owns every occurrence count,
// fired-once flag and random stream of the plan — per run, not per plan
// value — so a victim and the replacement spawned into its slot share
// them (a fired fault stays fired, a step re-executed after a rollback
// runs clean) while a second run of the same plan starts afresh. The
// ranks of a world run one at a time, so a Run needs no locking; it must
// not be shared between worlds.
type Run struct {
	entries []Entry // the plan's, drawn kills resolved
	seed    uint64
	count   []int          // per (rank, site): occurrences entered so far
	streams []*machine.RNG // per (rank, site), seeded on first draw
	flips   int
	strikes []Strike // every Flip and Kill fired: the fired-once state
}

// Strike records one fired Flip or Kill entry: the entry's index in the
// plan, where and at which occurrence it fired, a Flip's element, bit
// and value before and after, a Kill's virtual clock at death.
type Strike struct {
	Entry, Rank, At int
	Kind            Kind
	Index, Bit      int
	Old, New, Clock float64
}

// NewRun validates p against a world of ranks ranks whose rank r holds
// vectors of localLen(r) elements at every site — an entry that could
// not fire as written is a fault: error, returned before any world runs
// — and draws its drawn kills from the stream seeded Seed^killSalt:
// the victim by Intn(ranks), then the occurrence as int(ExpFloat64·MTBF).
func NewRun(p Plan, ranks int, localLen func(rank int) int) (*Run, error) {
	r := &Run{
		entries: slices.Clone(p.Entries), seed: p.Seed,
		count: make([]int, ranks*len(sites)), streams: make([]*machine.RNG, ranks*len(sites)),
	}
	var kills *machine.RNG
	for i := range r.entries {
		e := &r.entries[i]
		if err := e.validate(ranks, localLen); err != nil {
			return nil, fmt.Errorf("fault: entry %d: %w", i, err)
		}
		if e.Kind == Kill && e.Rank == Drawn {
			if kills == nil {
				kills = machine.NewRNG(p.Seed ^ killSalt)
			}
			e.Rank = kills.Intn(ranks)
			e.At = int(kills.ExpFloat64() * e.MTBF)
		}
	}
	return r, nil
}

// Serial binds p to one serial vector of n elements: rank 0 of a
// one-rank world with no communicator, so its injector emits no events
// and p may hold no kill.
func Serial(p Plan, n int) (*Injector, error) {
	if slices.ContainsFunc(p.Entries, func(e Entry) bool { return e.Kind == Kill }) {
		return nil, errors.New("fault: a serial plan has no process to kill")
	}
	r, err := NewRun(p, 1, func(int) int { return n })
	if err != nil {
		return nil, err
	}
	return &Injector{run: r}, nil
}

// Rank returns rank c.Rank()'s injector on the run.
func (r *Run) Rank(c *comm.Comm) *Injector { return &Injector{run: r, rank: c.Rank(), c: c} }

// Flips returns the number of bits the run has flipped so far.
func (r *Run) Flips() int { return r.flips }

// Strikes returns the Flip and Kill entries fired so far, in firing order.
func (r *Run) Strikes() []Strike { return r.strikes }

// Injector is one rank's handle on a Run, consulted where a site's work
// happens: Enter before the work (kills), Corrupt on its result (flips).
// A nil *Injector injects nothing.
type Injector struct {
	run  *Run
	rank int
	c    *comm.Comm // nil for a serial injector
}

// Run returns the run the injector belongs to.
func (in *Injector) Run() *Run { return in.run }

// Enter opens occurrence k of site on this rank — k < 0 opens the one
// after the last entered — and fires the kills addressed to it: the rank
// records the strike, emits a rank_kill event and dies, and Enter
// returns comm.ErrKilled.
func (in *Injector) Enter(site string, k int) error {
	if in == nil {
		return nil
	}
	s := in.slot(site)
	if k < 0 {
		k = in.run.count[s]
	}
	in.run.count[s] = k + 1
	for i, e := range in.run.entries {
		if e.Kind == Kill && in.fires(i, e, site, k) {
			in.run.strikes = append(in.run.strikes, Strike{Entry: i, Kind: Kill, Rank: in.rank, At: k, Clock: in.c.Clock()})
			detail := "scheduled strike"
			if e.MTBF > 0 {
				detail = "mtbf strike"
			}
			in.c.Emit(obs.Event{Name: "rank_kill", Detail: detail})
			return in.c.Die()
		}
	}
	return nil
}

// Corrupt fires the flips addressed to this rank's open occurrence of
// site into v, in plan order, drawing from the rank's stream at the site,
// seeded Seed + r (operator), Seed + 1<<16 + r (preconditioner) or
// Seed + 2<<16 + r (step): a Flip draws its element by Intn(len(v)), then
// its bit from its Class, as needed; a FlipRate draws a Float64 per
// element and, for each element struck, a bit from AnyBit. A pass that
// flipped anything emits one fault_inject event carrying the count and
// the site's label.
func (in *Injector) Corrupt(site string, v []float64) {
	if in == nil {
		return
	}
	s := in.slot(site)
	k, n := in.run.count[s]-1, 0
	for i, e := range in.run.entries {
		switch {
		case e.Kind == Flip && len(v) > 0 && in.fires(i, e, site, k):
			if e.Index == Drawn {
				e.Index = in.stream(s).Intn(len(v))
			}
			if e.Bit == Drawn {
				e.Bit = e.Class.PickBit(in.stream(s))
			}
			old := v[e.Index]
			v[e.Index] = FlipBit(old, e.Bit)
			in.run.strikes = append(in.run.strikes, Strike{Entry: i, Kind: Flip, Rank: in.rank, At: k, Index: e.Index, Bit: e.Bit, Old: old, New: v[e.Index]})
			n++
		case e.Kind == FlipRate && e.Rate > 0 && in.addressed(e, site):
			rng := in.stream(s)
			for j := range v {
				if rng.Float64() < e.Rate {
					v[j] = FlipBit(v[j], AnyBit.PickBit(rng))
					n++
				}
			}
		}
	}
	in.run.flips += n
	if n > 0 && in.c != nil {
		in.c.Emit(obs.Event{Name: "fault_inject", Value: float64(n), Detail: sites[s%len(sites)].label})
	}
}

// siteIndex returns the index of name in sites, or -1.
func siteIndex(name string) int {
	for i := range sites {
		if sites[i].name == name {
			return i
		}
	}
	return -1
}

// slot is the (rank, site) index of the run's counts and streams.
func (in *Injector) slot(site string) int {
	s := siteIndex(site)
	if s < 0 {
		panic("fault: unknown site " + site)
	}
	return in.rank*len(sites) + s
}

func (in *Injector) addressed(e Entry, site string) bool {
	return e.Site == site && (e.Rank == Every || e.Rank == in.rank)
}

// fires reports whether entry i, a Flip or Kill, is due at occurrence k
// of site on this rank and has not fired there yet; the caller records
// the strike that marks it fired.
func (in *Injector) fires(i int, e Entry, site string, k int) bool {
	return e.At == k && in.addressed(e, site) &&
		!slices.ContainsFunc(in.run.strikes, func(s Strike) bool { return s.Entry == i && s.Rank == in.rank })
}

// stream returns the rank's stream at slot s, seeded on first use.
func (in *Injector) stream(s int) *machine.RNG {
	if in.run.streams[s] == nil {
		in.run.streams[s] = machine.NewRNG(in.run.seed + sites[s%len(sites)].offset + uint64(in.rank))
	}
	return in.run.streams[s]
}
