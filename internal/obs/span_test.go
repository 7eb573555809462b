package obs

import (
	"bytes"
	"testing"
)

// TestSpanRoundTrip pins the span wire contract: a span event's T is
// the start, Dur the length and Detail the phase; spans from ranks
// past 0 are kept only under AllRanks; and a WriteJSONL/ReadTrace
// round trip preserves what was kept exactly.
func TestSpanRoundTrip(t *testing.T) {
	rank1 := Event{T: 10, Rank: 1, Name: EventSpan, Attempt: 3, Dur: 2.5, Detail: PhaseAllreduce}
	tr := NewRunTracer("k", 7)
	tr.Observe(rank1)
	if evs := tr.Events(); len(evs) != 0 {
		t.Fatalf("rank-0 tracer kept a rank-1 span: %+v", evs)
	}
	tr.AllRanks = true
	tr.Observe(Event{T: 1.5, Name: EventSpan, Attempt: 2, Dur: 2.5, Detail: PhaseSpMV})
	tr.Observe(rank1)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != "k" || got.Seed != 7 {
		t.Errorf("identity %q/%d, want k/7", got.Key, got.Seed)
	}
	want := []Event{
		{T: 1.5, Rank: 0, Seq: 0, Name: EventSpan, Attempt: 2, Dur: 2.5, Detail: PhaseSpMV},
		{T: 10, Rank: 1, Seq: 0, Name: EventSpan, Attempt: 3, Dur: 2.5, Detail: PhaseAllreduce},
	}
	if len(got.Events) != len(want) {
		t.Fatalf("%d events, want %d", len(got.Events), len(want))
	}
	for i, ev := range got.Events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

// TestSpanOrderingWithPointEvents: span events sort into the export
// order by their start time, interleaved with point events on the same
// stream, and per-rank Seq stays strictly increasing across both kinds.
func TestSpanOrderingWithPointEvents(t *testing.T) {
	tr := NewRunTracer("k", 1)
	tr.Observe(Event{T: 5, Name: "iter", Attempt: 1, Iter: 3, Value: 0.5})
	tr.Observe(Event{T: 2, Name: EventSpan, Attempt: 1, Dur: 4, Detail: PhasePrecondApply}) // starts before the iter event
	tr.Observe(Event{T: 2, Name: "fault", Attempt: 1, Detail: "bitflip"})

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events", len(evs))
	}
	// (T, Rank, Seq): T=2 twice (Seq 1 then 2, emission order), then T=5.
	if evs[0].Name != EventSpan || evs[0].T != 2 {
		t.Errorf("first event %+v, want the span at its start time", evs[0])
	}
	if evs[1].Name != "fault" || evs[2].Name != "iter" {
		t.Errorf("order %q, %q after span", evs[1].Name, evs[2].Name)
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Rank == b.Rank && a.Seq >= b.Seq && a.T == b.T {
			t.Errorf("Seq not increasing at same (T, Rank): %+v then %+v", a, b)
		}
	}
}

// TestNilTracerSpansAreNoOps: the nil tracer is a free and safe span
// sink — Observe discards without allocating.
func TestNilTracerSpansAreNoOps(t *testing.T) {
	var tr *RunTracer
	tr.Observe(Event{Name: EventSpan, Attempt: 1, Dur: 1, Detail: PhaseSpMV})
	if evs := tr.Events(); evs != nil {
		t.Errorf("nil tracer holds events: %v", evs)
	}

	if n := testing.AllocsPerRun(100, func() {
		tr.Observe(Event{Name: EventSpan, Attempt: 1, Dur: 1, Detail: PhaseSpMV})
		tr.Observe(Event{Rank: 1, Name: EventSpan, Attempt: 1, Dur: 1, Wait: 0.5, Detail: PhaseHaloExchange})
	}); n != 0 {
		t.Errorf("disabled span path allocates %g per op, want 0", n)
	}
}

// TestPhaseCatalogue pins the well-known phase set: Phases() returns
// every constant exactly once, in catalogue order, with
// restart-recovery last (analytics treat it separately).
func TestPhaseCatalogue(t *testing.T) {
	ps := Phases()
	want := []string{
		PhaseAssemble, PhasePrecondSetup, PhasePrecondApply,
		PhaseSpMV, PhaseHaloExchange, PhaseAllreduce,
		PhaseOrthogonalize, PhaseSanitize, PhaseRestartRecovery,
	}
	if len(ps) != len(want) {
		t.Fatalf("%d phases, want %d", len(ps), len(want))
	}
	seen := map[string]bool{}
	for i, p := range ps {
		if p != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p, want[i])
		}
		if seen[p] {
			t.Errorf("duplicate phase %q", p)
		}
		seen[p] = true
	}
	if ps[len(ps)-1] != PhaseRestartRecovery {
		t.Error("restart-recovery is not last in the catalogue")
	}
}
