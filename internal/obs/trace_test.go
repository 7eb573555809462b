package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *RunTracer
	tr.Observe(Event{T: 1, Name: EventIteration, Iter: 3, Value: 0.5})
	if tr.Key() != "" || tr.Events() != nil {
		t.Fatalf("nil tracer must read as empty")
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteJSONL wrote %d bytes, err %v", b.Len(), err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteChromeTrace wrote %d bytes, err %v", b.Len(), err)
	}
}

// TestTracerExportOrderDeterministic pins that export order is
// independent of the interleaving in which rank goroutines emit: events
// sort by (T, Rank, Seq), and per-rank Seq preserves each rank's own
// program order.
func TestTracerExportOrderDeterministic(t *testing.T) {
	run := func(perm []int) string {
		tr := NewRunTracer("cell/rep0", 42)
		var wg sync.WaitGroup
		for _, rank := range perm {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					tr.Observe(Event{T: float64(i), Rank: rank, Name: EventIteration, Iter: i + 1, Value: 1.0 / float64(i+1)})
				}
			}(rank)
		}
		wg.Wait()
		tr.Observe(Event{T: 5, Rank: -1, Name: "run_end", Detail: "converged"})
		var b bytes.Buffer
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := run([]int{0, 1, 2, 3})
	c := run([]int{3, 1, 0, 2})
	if a != c {
		t.Fatalf("trace bytes depend on goroutine order:\n--- a ---\n%s--- b ---\n%s", a, c)
	}
}

func TestTracerJSONLFormat(t *testing.T) {
	tr := NewRunTracer("k", 7)
	tr.Observe(Event{Rank: -1, Name: "run_begin"})
	tr.Observe(Event{T: 0.5, Name: EventIteration, Iter: 1, Value: 0.25})
	tr.Observe(Event{T: 1, Rank: -1, Name: "run_end", Detail: "converged"})
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 events:\n%s", len(lines), b.String())
	}
	var hdr traceHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Schema != TraceSchema || hdr.Key != "k" || hdr.Seed != 7 || hdr.Events != 3 {
		t.Fatalf("header = %+v", hdr)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatalf("event: %v", err)
	}
	if ev.Name != "iteration" || ev.Rank != 0 || ev.Iter != 1 || ev.Value != 0.25 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestTracerChromeTrace(t *testing.T) {
	tr := NewRunTracer("cell", 1)
	tr.Observe(Event{Rank: -1, Name: "run_begin"})
	tr.Observe(Event{Rank: -1, Name: "attempt_begin"})
	tr.Observe(Event{T: 0.25, Rank: 1, Name: "fault_inject", Value: 2, Detail: "bitflip"})
	tr.Observe(Event{T: 1, Rank: -1, Name: "attempt_end"})
	tr.Observe(Event{T: 1, Rank: -1, Name: "run_end"})
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(b.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(ct.TraceEvents))
	}
	phases := map[string]int{}
	for _, ce := range ct.TraceEvents {
		phases[ce.Ph]++
	}
	if phases["B"] != 2 || phases["E"] != 2 || phases["i"] != 1 {
		t.Fatalf("phase mix = %v, want 2×B, 2×E, 1×i", phases)
	}
	// Virtual seconds become microseconds of trace time.
	for _, ce := range ct.TraceEvents {
		if ce.Name == "fault_inject" && ce.Ts != 0.25e6 {
			t.Fatalf("fault_inject ts = %v, want 2.5e5", ce.Ts)
		}
	}
}

// TestTee pins the sink combinator: nil sinks are skipped, a Tee of
// none is nil (the unobserved fast path survives composition), a Tee
// of one is that sink, and several receive every event in order.
func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no live sinks must be nil")
	}
	var got []string
	mk := func(name string) func(Event) {
		return func(ev Event) { got = append(got, name+":"+ev.Name) }
	}
	Tee(nil, mk("only"), nil)(Event{Name: "x"})
	Tee(mk("a"), nil, mk("b"))(Event{Name: "y"})
	if want := "only:x a:y b:y"; strings.Join(got, " ") != want {
		t.Fatalf("deliveries %q, want %q", strings.Join(got, " "), want)
	}
}
