package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// TraceSchema is the version tag of the structured run-trace format. A
// trace is one JSONL file: a header line carrying this schema, the run
// key and seed, followed by one line per event in deterministic order.
const TraceSchema = "repro-trace/v1"

// Event is one point on a run's timeline. T is *virtual* seconds since
// the run began — monotone across global-restart attempts because each
// attempt's events are offset by the virtual time already charged to the
// run — so the timeline reads like the simulated machine's history, not
// the host's. Rank is the simulated rank that produced the event, or -1
// for the harness (run/attempt bookkeeping, restarts). Seq is the
// event's index within its rank's own stream; (T, Rank, Seq) is the
// total order traces are exported in, which is what makes a seeded
// run's trace byte-identical across reruns regardless of goroutine
// scheduling.
type Event struct {
	T    float64 `json:"t"`
	Rank int     `json:"rank"`
	Seq  int     `json:"seq"`
	// Name identifies the event: run_begin, attempt_begin, iteration,
	// fault_inject, rank_kill, restart, recovery, discard,
	// setup_cache_hit, setup_cache_miss, attempt_end, run_end, or span
	// (a closed phase interval — see EventSpan).
	Name string `json:"name"`
	// Attempt is the global-restart attempt the event belongs to.
	Attempt int `json:"attempt"`
	// Iter is the solver iteration (iteration/discard events).
	Iter int `json:"iter,omitempty"`
	// Value carries the event's scalar: an iteration's relative
	// residual, a fault_inject's flip count, an attempt_end's outcome.
	Value float64 `json:"value,omitempty"`
	// Dur is the length of a span event's interval (see EventSpan); zero
	// — and omitted — for point events, which keeps the added field
	// invisible in pre-span traces.
	Dur float64 `json:"dur,omitempty"`
	// Wait is the span's wait attribution: the virtual seconds of the
	// interval its rank spent blocked behind the slowest participant
	// (collective lag, halo-message latency). Zero — and omitted — for
	// point events, non-blocking spans, and traces written before wait
	// attribution existed, so the field is wire-compatible both ways.
	Wait float64 `json:"wait,omitempty"`
	// Detail is a short human-readable qualifier; for span events it is
	// the phase name.
	Detail string `json:"detail,omitempty"`
}

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	Seed   uint64 `json:"seed"`
	Events int    `json:"events"`
}

// EventIteration and EventDiscard name the two progress events with
// live consumers beyond the trace (the solve service streams them as
// SSE frames): one solver iteration with its relative residual in
// Value, and one inner solve rejected by FT-GMRES's sanitisation
// consensus with its ordinal in Iter.
const (
	EventIteration = "iteration"
	EventDiscard   = "discard"
)

// Tee composes event sinks into one that delivers each event to every
// sink in order. Nil sinks are skipped and a Tee of none is nil, so an
// unobserved run keeps its observer-free fast path.
func Tee(sinks ...func(Event)) func(Event) {
	live := sinks[:0:0]
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev Event) {
		for _, s := range live {
			s(ev)
		}
	}
}

// RunTracer is the event sink that records one run's timeline — from
// the harness, every rank and the engine's supervisor — and
// exports it in a deterministic order. The nil *RunTracer is a valid
// no-op sink: every method returns immediately, with zero allocations,
// which is how tracing stays free when disabled (pinned by
// kernel/obs-disabled-telemetry). A RunTracer is safe for concurrent
// use.
type RunTracer struct {
	// AllRanks keeps every rank's phase spans. Off, spans from ranks
	// past 0 are dropped on arrival: the solves are SPMD-symmetric, so
	// one rank's attribution is representative and trace volume stays
	// linear in iterations rather than iterations × ranks — but
	// traceq's load-imbalance, wait-share and critical-path sections
	// need every rank. Set it before the run starts.
	AllRanks bool

	key  string
	seed uint64

	mu     sync.Mutex
	events []Event
	seq    map[int]int // per-rank event sequence counters
}

// NewRunTracer returns a tracer for the run identified by key (the
// campaign run key) and its derived seed.
func NewRunTracer(key string, seed uint64) *RunTracer {
	return &RunTracer{key: key, seed: seed, seq: make(map[int]int)}
}

// Key returns the run key the tracer was created with ("" on nil).
func (t *RunTracer) Key() string {
	if t == nil {
		return ""
	}
	return t.key
}

// Observe records one event, stamping Seq with the event's index in
// its rank's stream. It is the tracer's func(Event) sink; a nil tracer
// discards the event for free.
func (t *RunTracer) Observe(ev Event) {
	if t != nil {
		t.record(ev)
	}
}

// record is Observe's body, out of line so that Observe inlines to a
// nil check at call sites holding a possibly-nil tracer.
func (t *RunTracer) record(ev Event) {
	if ev.Name == EventSpan && ev.Rank > 0 && !t.AllRanks {
		return
	}
	t.mu.Lock()
	ev.Seq = t.seq[ev.Rank]
	t.seq[ev.Rank] = ev.Seq + 1
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in export order: sorted
// by (T, Rank, Seq). Each rank emits from a single goroutine, so Seq
// reconstructs its program order; the sort merges the per-rank streams
// into one deterministic timeline independent of scheduling.
func (t *RunTracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteJSONL writes the trace in repro-trace/v1 JSONL form: the header
// line, then one line per event in export order. Output is
// byte-identical across reruns of the same seeded run. A nil tracer
// writes nothing.
func (t *RunTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceHeader{Schema: TraceSchema, Key: t.key, Seed: t.seed, Events: len(events)}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto). ts is microseconds of virtual time; tid
// is the simulated rank (-1 for the harness).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the trace in Chrome trace-event format for
// timeline viewing: run and attempt begin/end events become duration
// spans, everything else becomes thread-scoped instants on the emitting
// rank's track. Virtual seconds map to microseconds of trace time. A
// nil tracer writes nothing.
func (t *RunTracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, ev := range events {
		ce := chromeEvent{Name: ev.Name, Ts: ev.T * 1e6, Pid: 0, Tid: ev.Rank}
		switch ev.Name {
		case "run_begin":
			ce.Name, ce.Ph = "run "+t.key, "B"
		case "run_end":
			ce.Name, ce.Ph = "run "+t.key, "E"
		case "attempt_begin":
			ce.Name, ce.Ph = "attempt", "B"
		case "attempt_end":
			ce.Name, ce.Ph = "attempt", "E"
		case EventSpan:
			// Phase spans become complete ("X") events so viewers draw
			// them as nested duration boxes on the rank's track.
			ce.Name, ce.Ph, ce.Dur = ev.Detail, "X", ev.Dur*1e6
		default:
			ce.Ph, ce.S = "i", "t"
		}
		args := make(map[string]any)
		args["attempt"] = ev.Attempt
		if ev.Iter != 0 {
			args["iter"] = ev.Iter
		}
		if ev.Value != 0 {
			args["value"] = ev.Value
		}
		if ev.Wait != 0 {
			args["wait"] = ev.Wait
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		ce.Args = args
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}
