package campaign

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// recorder is a concurrency-safe ExecEnv.Events sink that keeps every
// event in arrival order.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) observe(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// ranksByName is the event-name × emitting-rank matrix of what was
// recorded: for each event name, the sorted set of ranks it arrived
// from.
func (r *recorder) ranksByName() map[string][]int {
	out := map[string][]int{}
	for _, ev := range r.events {
		if !slices.Contains(out[ev.Name], ev.Rank) {
			out[ev.Name] = append(out[ev.Name], ev.Rank)
		}
	}
	for _, ranks := range out {
		slices.Sort(ranks)
	}
	return out
}

// TestRunEventMatrix pins the one run-event stream: which events a run
// delivers to ExecEnv.Events and from which rank — the table in
// docs/OBSERVABILITY.md. Progress (iteration, discard) is rank 0's
// copy only; injections, setup-cache outcomes and kills come from the
// rank that caused them; spans from every rank; run/attempt
// bookkeeping from the harness stream, rank -1. Every event is stamped
// in run-virtual time with its attempt, and recording beside a tracer
// leaves the trace bytes unchanged.
func TestRunEventMatrix(t *testing.T) {
	harness := []int{-1}
	everyRank := []int{0, 1}
	killSpec := testSpec()
	killSpec.MaxRestarts = 8
	for _, tc := range []struct {
		name string
		spec Spec
		cell Cell
		// reps runs of the cell share one setup cache, so the second
		// adopts what the first stored.
		reps int
		want map[string][]int
	}{
		{
			name: "ftgmres bj-ilu bitflip with a setup cache", spec: testSpec(), reps: 2,
			cell: Cell{Solver: SolverFTGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff,
				Ranks: 2, Fault: FaultSpec{Model: FaultBitflip, Rate: 5e-2}},
			want: map[string][]int{
				"run_begin": harness, "attempt_begin": harness, "attempt_end": harness, "run_end": harness,
				obs.EventIteration: {0}, obs.EventDiscard: {0},
				"fault_inject": everyRank, "setup_cache_miss": everyRank, "setup_cache_hit": everyRank,
				obs.EventSpan: everyRank,
			},
		},
		{
			name: "rank-kill with global restarts", spec: killSpec, reps: 1,
			cell: Cell{Solver: SolverGMRES, Precond: PrecondNone, Problem: ProblemPoisson,
				Ranks: 2, Fault: FaultSpec{Model: FaultRankKill, MTBF: 15}},
			want: map[string][]int{
				"run_begin": harness, "attempt_begin": harness, "attempt_end": harness, "run_end": harness,
				"restart": harness, "recovery": harness,
				obs.EventIteration: {0},
				obs.EventSpan:      {-1, 0, 1}, // -1: the restart-recovery span
			},
		},
		{
			name: "rank-kill beside a tracer", spec: testSpec(), reps: 1,
			cell: Cell{Solver: SolverGMRES, Precond: PrecondJacobi, Problem: ProblemPoisson,
				Ranks: 2, Fault: FaultSpec{Model: FaultRankKill, MTBF: 60}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			cache := newMapCache()
			var last Record
			for rep := 0; rep < tc.reps; rep++ {
				tr := newRunTracer(&tc.spec, tc.cell, rep)
				last = ExecuteRunEnv(&tc.spec, tc.cell, rep, &ExecEnv{Setups: cache, Events: obs.Tee(rec.observe, tr.Observe)})
				if last.Err != "" {
					t.Fatal(last.Err)
				}
				if rep > 0 {
					// Later reps adopt cached setups where a fresh solo
					// run would factorise: hit/miss labels would differ.
					continue
				}
				var teed bytes.Buffer
				if err := tr.WriteJSONL(&teed); err != nil {
					t.Fatal(err)
				}
				solo := newRunTracer(&tc.spec, tc.cell, rep)
				ExecuteRunEnv(&tc.spec, tc.cell, rep, &ExecEnv{Setups: newMapCache(), Events: solo.Observe})
				var alone bytes.Buffer
				if err := solo.WriteJSONL(&alone); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(teed.Bytes(), alone.Bytes()) {
					t.Error("trace bytes changed when a second sink was tee'd beside the tracer")
				}
			}
			for _, ev := range rec.events {
				if ev.T < 0 || ev.Dur < 0 || ev.Wait < 0 || ev.Attempt < 0 || ev.Attempt > last.Restarts {
					t.Fatalf("badly stamped event %+v (run had %d restarts)", ev, last.Restarts)
				}
			}
			if tc.want == nil {
				return
			}
			got := rec.ranksByName()
			if tc.cell.Fault.Model == FaultRankKill {
				// Each failed attempt's kill is reported once, by the
				// victim the attempt seed drew, at the clock the restart
				// is charged at.
				if last.Restarts == 0 {
					t.Fatal("no restarts; the kill row pins nothing")
				}
				var kills, restarts []obs.Event
				for _, ev := range rec.events {
					switch ev.Name {
					case "rank_kill":
						kills = append(kills, ev)
					case "restart":
						restarts = append(restarts, ev)
					}
				}
				if len(kills) != last.Restarts || len(restarts) != last.Restarts {
					t.Fatalf("%d rank_kill and %d restart events for %d restarts", len(kills), len(restarts), last.Restarts)
				}
				slices.SortFunc(kills, func(a, b obs.Event) int { return a.Attempt - b.Attempt })
				const killSalt = 0x4b494c4c52414e4b // the fault plan's drawn-kill stream: "KILLRANK"
				for a, k := range kills {
					victim := machine.NewRNG(attemptSeed(last.Seed, a) ^ killSalt).Intn(tc.cell.Ranks)
					if k.Attempt != a || k.Rank != victim || k.T != restarts[a].T {
						t.Errorf("attempt %d: rank_kill %+v, want rank %d at the restart clock %g", a, k, victim, restarts[a].T)
					}
				}
				delete(got, "rank_kill")
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("event × rank matrix:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}
