package lflr

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
)

// lflrFamilyGolden pins the three LFLR applications across versions as
// data: it was recorded by running this file in a clone of the commit
// before heat, advection and implicit heat became three apps over one
// skeleton, and a later build must reproduce every line. The file uses
// the exported Run* API and comm.Ledger only, so it runs unchanged on
// either side of such a refactor. To re-record after a deliberate change
// to the arithmetic or the protocol, delete the file and run the test: it
// writes the file and fails.
const lflrFamilyGolden = "testdata/lflr_family.golden.jsonl"

// familyScenario is one run of one app: a world size, a persistence
// interval (explicit apps) or replica coarsening (implicit), scheduled
// kills and an optional silent flip.
type familyScenario struct {
	app, name string
	p         int
	persist   int
	coarsen   int
	kills     []fault.Entry
	sdc       *fault.Entry
	guard     bool
}

const (
	familySteps         = 45 // explicit apps
	familyImplicitSteps = 12
)

// familyVictims is {0, an interior rank, P−1} without repeats. A lone
// rank has no survivor to agree a rollback target with, so P = 1 runs
// fault-free and SDC scenarios only.
func familyVictims(p int) []int {
	switch p {
	case 1:
		return nil
	case 2:
		return []int{0, 1}
	}
	return []int{0, p/2 - 1, p - 1}
}

func familyScenarios() []familyScenario {
	var out []familyScenario
	add := func(sc familyScenario, format string, args ...any) {
		sc.name = fmt.Sprintf(format, args...)
		out = append(out, sc)
	}
	kill := fault.StepKill
	flip := func(rank, step, index, bit int) *fault.Entry {
		e := fault.StepFlip(rank, step, index, bit)
		return &e
	}

	for _, app := range []string{"heat", "advect"} {
		for _, p := range []int{1, 2, 4, 8} {
			for _, k := range []int{1, 7, 20} {
				base := familyScenario{app: app, p: p, persist: k}
				add(base, "p%d/k%d/clean", p, k)

				// A persist step near the middle of the run, the steps
				// either side of it, and the last step.
				ks := k * max(1, familySteps/2/k)
				for _, v := range familyVictims(p) {
					for _, s := range []int{ks, ks + 1, ks - 1, familySteps - 1} {
						sc := base
						sc.kills = []fault.Entry{kill(v, s)}
						add(sc, "p%d/k%d/kill-r%d-s%d", p, k, v, s)
					}
				}
				if p > 1 {
					sc := base
					sc.kills = []fault.Entry{kill(p/2, 10), kill(p/2, 30)}
					add(sc, "p%d/k%d/kill-twice-same", p, k)
					sc.kills = []fault.Entry{kill(0, 10), kill(p-1, 30)}
					add(sc, "p%d/k%d/kill-twice-different", p, k)
				}

				// One flip at step 23: upward (the top exponent bit, clear
				// in both apps' O(1) fields) and downward (a set exponent
				// bit), guarded, and the upward one unguarded.
				for _, v := range []struct {
					name  string
					bit   int
					guard bool
				}{{"up-guard", 62, true}, {"down-guard", 54, true}, {"up-noguard", 62, false}} {
					sc := base
					sc.sdc = flip(p/2, 23, 3, v.bit)
					sc.guard = v.guard
					add(sc, "p%d/k%d/sdc-%s", p, k, v.name)
				}
				if p > 1 && k > 1 {
					// A flip and a kill in one run: on different ranks, and
					// on one rank with the kill after and before the flip,
					// so the replacement re-executes, or is the one to
					// execute, the flip's step.
					for _, guard := range []bool{true, false} {
						sc := base
						sc.guard = guard
						sc.sdc = flip(0, 13, 3, 62)
						sc.kills = []fault.Entry{kill(p-1, 31)}
						add(sc, "p%d/k%d/sdc-and-kill/guard-%v", p, k, guard)
						sc.sdc = flip(p/2, 23, 3, 62)
						sc.kills = []fault.Entry{kill(p/2, 25)}
						add(sc, "p%d/k%d/sdc-then-kill-victim/guard-%v", p, k, guard)
						sc.kills = []fault.Entry{kill(p/2, 10)}
						add(sc, "p%d/k%d/kill-then-sdc-victim/guard-%v", p, k, guard)
					}
				}
			}
		}
		// Recorded as the errors they are at the parent: a kill before the
		// first persist leaves nothing to restore, and a replacement does
		// not re-log what it replays, so its neighbour dying inside the
		// same persist window finds the log short.
		add(familyScenario{app: app, p: 4, persist: 7, kills: []fault.Entry{kill(1, 0)}}, "p4/k7/kill-before-first-persist")
		add(familyScenario{app: app, p: 4, persist: 20, kills: []fault.Entry{kill(1, 10), kill(2, 15)}}, "p4/k20/kill-adjacent-in-window")
	}

	for _, p := range []int{1, 2, 4, 8} {
		for _, cs := range []int{1, 2, 4} {
			base := familyScenario{app: "implicit", p: p, coarsen: cs}
			add(base, "p%d/c%d/clean", p, cs)
			for _, v := range familyVictims(p) {
				for _, s := range []int{0, 6, familyImplicitSteps - 1} {
					sc := base
					sc.kills = []fault.Entry{kill(v, s)}
					add(sc, "p%d/c%d/kill-r%d-s%d", p, cs, v, s)
				}
			}
			if p > 1 {
				sc := base
				sc.kills = []fault.Entry{kill(p/2, 3), kill(p/2, 8)}
				add(sc, "p%d/c%d/kill-twice-same", p, cs)
				sc.kills = []fault.Entry{kill(0, 3), kill(p-1, 8)}
				add(sc, "p%d/c%d/kill-twice-different", p, cs)
			}
		}
	}
	return out
}

// familyLine is one golden record. A run that fails records its error
// and nothing else.
type familyLine struct {
	App        string `json:"app"`
	Scenario   string `json:"scenario"`
	Err        string `json:"err,omitempty"`
	Recoveries int    `json:"recoveries"`
	Replay     int    `json:"replay"`
	Detections int    `json:"detections"`
	Rollback   int    `json:"rollback"`
	FNV        string `json:"fnv,omitempty"` // field, summary, clock, counters and the world's ledger
}

// runFamily executes sc on a jittered world (so a moved, merged or
// dropped Compute charge shifts every later noise draw) and returns its
// golden record.
func runFamily(sc familyScenario) familyLine {
	led := &comm.Ledger{}
	w := comm.NewWorld(comm.Config{
		Ranks: sc.p, Cost: machine.DefaultCostModel(), Seed: 7,
		Noise: machine.UniformJitter{Frac: 0.25}, Ledger: led,
	})
	plan := fault.Plan{Entries: slices.Clone(sc.kills)}
	if sc.sdc != nil {
		plan.Entries = append(plan.Entries, *sc.sdc)
	}
	line := familyLine{App: sc.app, Scenario: sc.name}

	var (
		u       []float64
		summary float64 // Energy or Mass
		clock   float64
		cgIters []int
		replica int
		err     error
	)
	switch sc.app {
	case "heat":
		var r HeatResult
		r, err = RunHeat(w, NewStore(), HeatConfig{
			Nx: 7, Ny: 20, Nu: 0.25, Steps: familySteps, PersistEvery: sc.persist,
			Faults: plan, EnergyGuard: sc.guard,
		})
		u, summary, clock = r.U, r.Energy, r.FinalClock
		line.Recoveries, line.Replay, line.Detections, line.Rollback = r.Recoveries, r.ReplaySteps, r.SDCDetections, r.RollbackSteps
	case "advect":
		var r AdvectResult
		r, err = RunAdvection(w, NewStore(), AdvectConfig{
			N: 67, C: 0.5, Steps: familySteps, PersistEvery: sc.persist,
			Faults: plan, MassGuard: sc.guard,
		})
		u, summary, clock = r.U, r.Mass, r.FinalClock
		line.Recoveries, line.Replay, line.Detections, line.Rollback = r.Recoveries, r.ReplaySteps, r.SDCDetections, r.RollbackSteps
	case "implicit":
		var r ImplicitResult
		r, err = RunImplicitHeat(w, NewStore(), ImplicitConfig{
			Nx: 7, Ny: 20, Nu: 1, Steps: familyImplicitSteps, Coarsen: sc.coarsen, Faults: plan,
		})
		u, clock, cgIters, replica = r.U, r.FinalClock, r.CGIters, r.ReplicaFloats
		line.Recoveries = r.Recoveries
	}
	if err != nil {
		return familyLine{App: sc.app, Scenario: sc.name, Err: err.Error()}
	}

	h := fnv.New64a()
	u64 := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	// Floats hash by bit pattern, every NaN as one value: which NaN an
	// unguarded flip leaves behind is the hardware's choice.
	f64 := func(vs ...float64) {
		for _, v := range vs {
			if math.IsNaN(v) {
				v = math.NaN()
			}
			u64(math.Float64bits(v))
		}
	}
	f64(u...)
	f64(summary, clock)
	u64(uint64(line.Recoveries), uint64(line.Replay), uint64(line.Detections), uint64(line.Rollback), uint64(replica))
	for _, it := range cgIters {
		u64(uint64(it))
	}
	s := led.Snapshot()
	u64(uint64(s.Stats.Sends), uint64(s.Stats.Recvs), uint64(s.Stats.Collective), uint64(s.Ranks))
	f64(s.Stats.Flops, s.MaxClock, s.RankSeconds)
	line.FNV = fmt.Sprintf("%016x", h.Sum64())
	return line
}

// TestLFLRFamilyGolden runs the three apps over the scenario table —
// world sizes, persistence intervals, victims, kill steps either side of
// a persist, sequential kills, silent flips with and without the guard,
// flips and kills together, replica coarsenings — and compares each
// record with the committed one.
func TestLFLRFamilyGolden(t *testing.T) {
	var got [][]byte
	for n, sc := range familyScenarios() {
		if testing.Short() && n%3 != 0 {
			got = append(got, nil)
			continue
		}
		line, err := json.Marshal(runFamily(sc))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, line)
	}

	data, err := os.ReadFile(lflrFamilyGolden)
	if os.IsNotExist(err) && !testing.Short() {
		if err := os.MkdirAll(filepath.Dir(lflrFamilyGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lflrFamilyGolden, append(bytes.Join(got, []byte("\n")), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this build; review and commit it", lflrFamilyGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(want) != len(got) {
		t.Fatalf("%s holds %d records, want %d", lflrFamilyGolden, len(want), len(got))
	}
	for i, line := range got {
		if line != nil && !bytes.Equal(line, want[i]) {
			t.Errorf("record differs from the committed one\n got %s\nwant %s", line, want[i])
		}
	}
}
