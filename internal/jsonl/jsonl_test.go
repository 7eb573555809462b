package jsonl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestScan pins the line/offset/terminated triples on the shapes the
// three formats' readers rely on.
func TestScan(t *testing.T) {
	type line struct {
		text       string
		offset     int64
		terminated bool
	}
	for _, tc := range []struct {
		name string
		in   string
		want []line
	}{
		{"empty", "", nil},
		{"one terminated", "ab\n", []line{{"ab", 0, true}}},
		{"torn tail", "ab\ncd", []line{{"ab", 0, true}, {"cd", 3, false}}},
		{"blank lines keep their offsets", "\n\nx\n", []line{{"", 0, true}, {"", 1, true}, {"x", 2, true}}},
		{"sealed tear", "frag\n{}\n", []line{{"frag", 0, true}, {"{}", 5, true}}},
	} {
		got := Scan([]byte(tc.in))
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d lines, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if g := got[i]; string(g.Bytes) != w.text || g.Offset != w.offset || g.Terminated != w.terminated {
				t.Errorf("%s: line %d = (%q, %d, %v), want (%q, %d, %v)", tc.name, i, g.Bytes, g.Offset, g.Terminated, w.text, w.offset, w.terminated)
			}
		}
	}
	if !(Line{Bytes: []byte(" \t\r")}).Blank() || (Line{Bytes: []byte(" x ")}).Blank() {
		t.Error("Blank misclassifies whitespace")
	}
}

// FuzzScan throws arbitrary bytes at the line splitter every format's
// reader sits on. The invariants: no panic; offsets strictly increase;
// the lines re-joined with their terminators reproduce the input byte
// for byte; at most one line is unterminated and it is the last.
func FuzzScan(f *testing.F) {
	// FuzzJournalReader's corpus …
	f.Add([]byte(""))
	f.Add([]byte(`{"schema":"repro-journal/v1","kind":"accept","id":"a"}` + "\n"))
	f.Add([]byte(`{"schema":"repro-journal/v1","kind":"run","id":"a","record":{"schema":"repro-campaign/v1","key":"k"`))
	f.Add([]byte(`{"schema":"other/v1","kind":"accept","id":"a"}` + "\n"))
	f.Add([]byte("garbage\n" + `{"schema":"repro-journal/v1","kind":"seal","offset":3}` + "\n"))
	f.Add([]byte("\n\ngarbage\n"))
	// … one real campaign shard line, one trace header + event, and a
	// shard whose mid-file tear a resume sealed with a bare newline.
	shard := `{"schema":"repro-campaign/v1","key":"pcg/none/poisson/p2/none/r0","cell":0,"rep":0,"seed":11,"solver":"pcg","precond":"none","problem":"poisson","ranks":2,"fault":"none","converged":true,"iters":21,"vtime":0.0004,"relres":6e-07}` + "\n"
	f.Add([]byte(shard))
	f.Add([]byte(`{"schema":"repro-trace/v1","key":"k","seed":1,"events":1}` + "\n" + `{"t":0,"rank":-1,"seq":0,"name":"run_begin","attempt":0}` + "\n"))
	f.Add([]byte(shard + shard[:40] + "\n" + shard))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := Scan(data)
		var joined []byte
		for i, l := range lines {
			if l.Offset != int64(len(joined)) {
				t.Fatalf("line %d at offset %d, but %d bytes precede it", i, l.Offset, len(joined))
			}
			if i > 0 && l.Offset <= lines[i-1].Offset {
				t.Fatalf("offsets not strictly increasing at line %d", i)
			}
			joined = append(joined, l.Bytes...)
			if l.Terminated {
				joined = append(joined, '\n')
			} else if i != len(lines)-1 {
				t.Fatalf("line %d of %d is unterminated but not last", i, len(lines))
			}
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("lines do not reproduce the input: %q vs %q", joined, data)
		}
	})
}

// TestOpenAppend walks the appender through the four ways a log is
// opened: fresh, keeping a clean file, keeping a torn one (the sealed
// offset is reported and the next append lands on its own line), and
// truncating.
func TestOpenAppend(t *testing.T) {
	for _, tc := range []struct {
		name       string
		existing   string // "" = no file
		keep       bool
		wantSealed int64
		want       string // file content after appending "new\n"
	}{
		{"fresh", "", true, -1, "new\n"},
		{"keep clean", "a\nb\n", true, -1, "a\nb\nnew\n"},
		{"keep torn", "a\nto", true, 4, "a\nto\nnew\n"},
		{"truncate", "a\nto", false, -1, "new\n"},
	} {
		for _, fsync := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if tc.existing != "" {
				if err := os.WriteFile(path, []byte(tc.existing), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			f, sealed, err := Open(path, tc.keep, fsync)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if sealed != tc.wantSealed {
				t.Errorf("%s: sealed offset %d, want %d", tc.name, sealed, tc.wantSealed)
			}
			if err := f.Append([]byte("new\n")); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.want {
				t.Errorf("%s (fsync %v): file is %q, want %q", tc.name, fsync, got, tc.want)
			}
			// Truncate restarts the log at offset zero.
			if err := f.Truncate(); err != nil {
				t.Fatal(err)
			}
			if err := f.Append([]byte("again\n")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != "again\n" {
				t.Errorf("%s: after Truncate file is %q", tc.name, got)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// failingReaderAt is a tail that cannot be inspected.
type failingReaderAt struct{}

func (failingReaderAt) ReadAt([]byte, int64) (int, error) { return 0, errors.New("disk on fire") }

// TestUnreadableTailIsNotAssumedClean: the tail probe reports a read
// failure instead of guessing the log ended cleanly — guessing would
// glue the next line onto a torn fragment and lose both.
func TestUnreadableTailIsNotAssumedClean(t *testing.T) {
	if _, err := endsMidLine(failingReaderAt{}, 10); err == nil {
		t.Error("a failed tail read was swallowed")
	}
	if torn, err := endsMidLine(failingReaderAt{}, 0); err != nil || torn {
		t.Errorf("empty log probed as (%v, %v), want clean without reading", torn, err)
	}
	if torn, err := endsMidLine(bytes.NewReader([]byte("a\nto")), 4); err != nil || !torn {
		t.Errorf("torn log probed as (%v, %v)", torn, err)
	}
}
