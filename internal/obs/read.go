package obs

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/jsonl"
)

// Trace is one parsed repro-trace/v1 file: the run identity from the
// header plus the events in export order, exactly as written.
type Trace struct {
	// Key is the run key the trace was recorded under.
	Key string
	// Seed is the run's derived seed.
	Seed uint64
	// Events holds the timeline in the file's (T, Rank, Seq) order.
	Events []Event
}

// ReadTrace parses one repro-trace/v1 JSONL file's bytes. It is strict
// — a trace is written whole, so nothing is forgiven: the header must
// carry the expected schema, every following line must be a complete
// event (an unparseable line, or a final one cut before its newline,
// fails with its byte offset), and the header's event count must
// match, so a truncated or foreign file fails loudly instead of
// yielding a silently short timeline.
func ReadTrace(data []byte) (*Trace, error) {
	lines := jsonl.Scan(data)
	if len(lines) == 0 {
		return nil, fmt.Errorf("obs: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(lines[0].Bytes, &hdr); err != nil {
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: trace schema %q, want %q", hdr.Schema, TraceSchema)
	}
	if last := lines[len(lines)-1]; !last.Terminated {
		return nil, fmt.Errorf("obs: trace %q: cut mid-line at byte %d", hdr.Key, last.Offset)
	}
	tr := &Trace{Key: hdr.Key, Seed: hdr.Seed, Events: make([]Event, 0, len(lines)-1)}
	for _, l := range lines[1:] {
		var ev Event
		if err := json.Unmarshal(l.Bytes, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace %q event %d at byte %d: %w", hdr.Key, len(tr.Events), l.Offset, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	if len(tr.Events) != hdr.Events {
		return nil, fmt.Errorf("obs: trace %q: header says %d events, file has %d", hdr.Key, hdr.Events, len(tr.Events))
	}
	return tr, nil
}

// ReadTraceFile is ReadTrace over a file path.
func ReadTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := ReadTrace(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
