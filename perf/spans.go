package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary: the benchmark's
// own record of a call into a layer, never the program's. Spans of one
// op (a run, a request, a pass) share OpID; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	Name   string  `json:"name"`
	OpID   int     `json:"op_id"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"` // seconds since the tracer was made
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer and a
// tracer with on == false record nothing: the first selects a
// workload's end-to-end code path, the second the traced code path
// with the recorder off, which is the pair bench.span_overhead_share
// compares.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (0 when not recording).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, OpID: op, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the duration in seconds of every span of one name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its child spans cover (children of concurrent workers
// overlap, so the union is taken, not the sum).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
