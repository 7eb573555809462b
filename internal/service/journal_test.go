package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// journalLine marshals one entry the way the writer does.
func journalLine(t *testing.T, e JournalEntry) string {
	t.Helper()
	e.Schema = JournalSchema
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// testRecord is a minimal but realistic run record for journal tests.
func testRecord() *campaign.Record {
	spec := killReplaySpec()
	cells := spec.Cells()
	rec := cells[0].Record(&spec, 0)
	rec.Converged = true
	rec.Iters = 12
	rec.Relres = 1e-8
	return &rec
}

// writeJournalFile places raw bytes as dir's journal.
func writeJournalFile(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReaderDiagnostics mirrors the campaign strict readers'
// table: a truncated final line seals cleanly (torn tail, not an
// error), while foreign schemas, mid-file garbage and structurally
// invalid entries fail hard with the file and byte offset named.
func TestJournalReaderDiagnostics(t *testing.T) {
	rec := testRecord()
	// An "accept" line is what older servers wrote before each run;
	// readers still parse it.
	accept := func(id string) string {
		return `{"schema":"repro-journal/v1","kind":"accept","id":"` + id + `"}` + "\n"
	}
	run := func(t *testing.T, id string) string {
		return journalLine(t, JournalEntry{Kind: "run", ID: id, Record: rec})
	}
	// Byte offset of the second line, for the diagnostics assertions.
	second := fmt.Sprintf("byte %d", len(accept("a")))

	cases := []struct {
		name        string
		content     string
		wantEntries int
		wantTorn    bool
		wantErr     []string // all must appear in the error
	}{
		{name: "empty file", content: "", wantEntries: 0},
		{name: "blank lines only", content: "\n\n\n", wantEntries: 0},
		{name: "clean entries", content: accept("a") + run(t, "a") + accept("b"), wantEntries: 3},
		{
			name:        "torn final line seals cleanly",
			content:     accept("a") + run(t, "a") + accept("b")[:9],
			wantEntries: 2, wantTorn: true,
		},
		{
			name:        "terminated garbage final line is a torn tail",
			content:     accept("a") + "{\"schema\":\"repro-journal/v1\",\"ki\n",
			wantEntries: 1, wantTorn: true,
		},
		{
			name:        "sealed tear is skipped",
			content:     accept("a") + run(t, "a")[:20] + "\n" + journalLine(t, JournalEntry{Kind: "seal", Offset: 99}) + accept("b"),
			wantEntries: 2,
		},
		{
			name:    "mid-file garbage fails with offset",
			content: accept("a") + "not json at all\n" + accept("b"),
			wantErr: []string{"journal", journalFile, second, "not valid"},
		},
		{
			name:    "foreign schema fails with offset",
			content: accept("a") + `{"schema":"other/v9","kind":"accept","id":"x"}` + "\n" + accept("b"),
			wantErr: []string{journalFile, "foreign schema", `"other/v9"`, second},
		},
		{
			name:    "unknown kind fails",
			content: `{"schema":"repro-journal/v1","kind":"mystery"}` + "\n" + accept("a"),
			wantErr: []string{"unknown kind", `"mystery"`, "byte 0"},
		},
		{
			name:    "run entry missing record fails",
			content: `{"schema":"repro-journal/v1","kind":"run","id":"a"}` + "\n" + accept("b"),
			wantErr: []string{"run entry missing", "byte 0"},
		},
		{
			name:    "run entry missing id fails",
			content: journalLine(t, JournalEntry{Kind: "run", Record: rec}) + accept("b"),
			wantErr: []string{"run entry missing id", "byte 0"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournalFile(t, dir, tc.content)
			jr, err := ReadJournal(dir)
			if len(tc.wantErr) > 0 {
				if err == nil {
					t.Fatalf("want error mentioning %v, got entries=%d", tc.wantErr, len(jr.Entries))
				}
				for _, frag := range tc.wantErr {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("error %q does not mention %q", err, frag)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(jr.Entries) != tc.wantEntries {
				t.Errorf("entries = %d, want %d", len(jr.Entries), tc.wantEntries)
			}
			if (jr.TornOffset >= 0) != tc.wantTorn {
				t.Errorf("torn offset = %d, want torn=%v", jr.TornOffset, tc.wantTorn)
			}
		})
	}
}

// TestJournalMissingFileIsFreshStart: a first boot has no journal and
// that is not an error.
func TestJournalMissingFileIsFreshStart(t *testing.T) {
	jr, err := ReadJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Entries) != 0 || jr.TornOffset >= 0 {
		t.Errorf("fresh dir read as %+v", jr)
	}
}

// TestOpenJournalSealsTornTail: reopening a journal whose last append
// was cut mid-line appends the newline + seal pair, after which the
// strict reader accepts the file and skips the fragment.
func TestOpenJournalSealsTornTail(t *testing.T) {
	dir := t.TempDir()
	whole := `{"schema":"repro-journal/v1","kind":"accept","id":"a"}` + "\n"
	torn := `{"schema":"repro-journal/v1","kind":"accept","id":"b"}`[:30]
	writeJournalFile(t, dir, whole+torn)

	sink, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	next := journalLine(t, JournalEntry{Kind: "accept", ID: "c"})
	if err := sink.Append([]byte(next)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	jr, err := ReadJournal(dir)
	if err != nil {
		t.Fatalf("sealed journal still rejected: %v", err)
	}
	if len(jr.Entries) != 2 || jr.Entries[0].ID != "a" || jr.Entries[1].ID != "c" {
		t.Errorf("sealed journal read as %+v, want ids a,c with the tear skipped", jr.Entries)
	}
	if jr.TornOffset >= 0 {
		t.Errorf("sealed journal still reports a torn tail at %d", jr.TornOffset)
	}
	// And the sealing is idempotent: reopening a clean file adds nothing.
	before, _ := os.ReadFile(filepath.Join(dir, journalFile))
	sink2, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	sink2.Close()
	after, _ := os.ReadFile(filepath.Join(dir, journalFile))
	if string(before) != string(after) {
		t.Error("reopening a clean journal changed its bytes")
	}
}

// TestJournalRoundTrip: entries written through the production sink
// read back exactly, and a record survives the journal byte-identically
// (the property every journal hit relies on).
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink, err := OpenJournal(dir, true) // fsync path included
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord()
	for _, e := range []JournalEntry{
		{Kind: "accept", ID: "x"},
		{Kind: "run", ID: "x", Record: rec},
	} {
		if err := sink.Append([]byte(journalLine(t, e))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	jr, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Entries) != 2 {
		t.Fatalf("read %d entries, want 2", len(jr.Entries))
	}
	want, _ := json.Marshal(rec)
	got, _ := json.Marshal(jr.Entries[1].Record)
	if string(want) != string(got) {
		t.Errorf("record did not round-trip:\nwrote %s\nread  %s", want, got)
	}
}

// FuzzJournalReader throws arbitrary bytes at the journal parser. The
// invariants: no panic; any accepted entry is structurally valid; a
// reported torn tail lies inside the file; errors name the file; and
// parsing is deterministic.
func FuzzJournalReader(f *testing.F) {
	rec := &campaign.Record{Schema: campaign.RunSchema, Key: "k", Solver: "pcg"}
	runLine, _ := json.Marshal(JournalEntry{Schema: JournalSchema, Kind: "run", ID: "a", Record: rec})
	f.Add([]byte(""))
	f.Add([]byte(`{"schema":"repro-journal/v1","kind":"accept","id":"a"}` + "\n"))
	f.Add(append(append([]byte{}, runLine...), '\n'))
	f.Add(runLine[:len(runLine)/2])
	f.Add([]byte(`{"schema":"other/v1","kind":"accept","id":"a"}` + "\n"))
	f.Add([]byte("garbage\n" + `{"schema":"repro-journal/v1","kind":"seal","offset":3}` + "\n"))
	f.Add([]byte("\n\ngarbage\n"))
	f.Add([]byte(`{"schema":"repro-journal/v1","kind":"campaign","digest":"abcd","runs":16}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := parseJournal("fuzz.jsonl", data)
		jr2, err2 := parseJournal("fuzz.jsonl", data)
		if (err == nil) != (err2 == nil) {
			t.Fatal("parse is nondeterministic")
		}
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.jsonl") {
				t.Errorf("error %q does not name the file", err)
			}
			return
		}
		if mustJSON(t, jr) != mustJSON(t, jr2) {
			t.Error("parse results differ across identical inputs")
		}
		if jr.TornOffset >= int64(len(data)) {
			t.Errorf("torn offset %d beyond file size %d", jr.TornOffset, len(data))
		}
		for _, e := range jr.Entries {
			if e.Schema != JournalSchema {
				t.Errorf("accepted foreign schema %q", e.Schema)
			}
			switch e.Kind {
			case "run":
				if e.ID == "" || e.Record == nil {
					t.Error("accepted run entry without id or record")
				}
			case "accept", "campaign":
				// Written by older servers; accepted and ignored.
			default:
				t.Errorf("accepted entry of kind %q", e.Kind)
			}
		}
	})
}
