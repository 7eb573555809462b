package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonl"
)

// TestReadTraceStrictness pins the trace reader's tear handling: a
// trace is written whole, so unlike a campaign shard or the run journal
// it forgives nothing — an empty, foreign, short, corrupt or cut file
// fails, the last two naming the byte offset of the offending line.
func TestReadTraceStrictness(t *testing.T) {
	hdr := func(events int) string {
		return fmt.Sprintf(`{"schema":"repro-trace/v1","key":"k","seed":1,"events":%d}`, events) + "\n"
	}
	ev := `{"t":0,"rank":-1,"seq":0,"name":"run_begin","attempt":0}` + "\n"
	second := fmt.Sprintf("byte %d", len(hdr(2))+len(ev))

	for _, tc := range []struct {
		name, in string
		want     []string // substrings of the error; nil = accepted
	}{
		{"whole trace", hdr(2) + ev + ev, nil},
		{"header only", hdr(0), nil},
		{"empty input", "", []string{"empty trace"}},
		{"foreign schema", `{"schema":"repro-journal/v1","kind":"accept","id":"a"}` + "\n", []string{"schema", `"repro-journal/v1"`}},
		{"header is not JSON", "not json\n", []string{"trace header"}},
		{"header count above event lines", hdr(3) + ev + ev, []string{"header says 3 events, file has 2"}},
		{"header count below event lines", hdr(1) + ev + ev, []string{"header says 1 events, file has 2"}},
		{"unparseable event", hdr(2) + ev + "{\"t\":0,\"ra\n", []string{`"k"`, "event 1", second}},
		{"blank line among events", hdr(2) + ev + "\n" + ev, []string{"event 1", second}},
		{"cut mid-line", hdr(2) + ev + ev[:20], []string{`"k"`, "cut mid-line", second}},
		{"cut before the final newline", hdr(2) + ev + strings.TrimSuffix(ev, "\n"), []string{"cut mid-line", second}},
	} {
		tr, err := ReadTrace([]byte(tc.in))
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted with %d events", tc.name, len(tr.Events))
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, w)
			}
		}
	}
}

// FuzzReadTrace: the strict trace reader never panics; a trace it
// accepts holds exactly the header's event count and came from input
// ending in a newline; and the same bytes give the same result twice.
// The corpus is a real RunTracer output and its torn and foreign
// variants.
func FuzzReadTrace(f *testing.F) {
	tr := NewRunTracer("gmres/none/poisson/p2/bitflip/r0", 11)
	tr.Observe(Event{Rank: -1, Name: "run_begin"})
	tr.Observe(Event{T: 0.5, Name: EventIteration, Iter: 1, Value: 0.25})
	tr.Observe(Event{T: 0.75, Rank: 1, Name: "fault_inject", Value: 2, Detail: "bitflip"})
	tr.Observe(Event{T: 1, Rank: -1, Name: "run_end", Detail: "converged"})
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		f.Fatal(err)
	}
	real := b.Bytes()
	f.Add(real)
	f.Add(real[:len(real)-1])
	f.Add(real[:len(real)/2])
	f.Add(bytes.Replace(real, []byte(`"events":4`), []byte(`"events":5`), 1))
	f.Add(append(append([]byte{}, real...), "{\"t\":\n"...))
	f.Add([]byte(""))
	f.Add([]byte("garbage\n\x00\xff"))
	f.Add([]byte(`{"schema":"repro-journal/v1","kind":"accept","id":"a"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(data)
		tr2, err2 := ReadTrace(data)
		if fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("two reads differ: %v / %v", err, err2)
		}
		if err != nil {
			return
		}
		if data[len(data)-1] != '\n' {
			t.Fatalf("accepted a trace not ending in a newline: %q", data)
		}
		var hdr traceHeader
		if err := json.Unmarshal(jsonl.Scan(data)[0].Bytes, &hdr); err != nil || hdr.Events != len(tr.Events) {
			t.Fatalf("accepted %d events under header %+v (%v)", len(tr.Events), hdr, err)
		}
	})
}
