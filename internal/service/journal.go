package service

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/jsonl"
)

// JournalSchema is the version tag every run-journal line carries.
// Journals are versioned exactly like the wire schema: a reader that
// meets a different tag refuses the file instead of guessing at it.
const JournalSchema = "repro-journal/v1"

// journalFile is the append-only journal's file name inside the
// journal directory — the only file a durable server writes there.
const journalFile = "journal.jsonl"

// JournalEntry is one line of the repro-journal/v1 stream. A "run"
// line records one completed run, Record carried inline — the only
// history a restart reads back — and "seal" marks the spot where a
// reopening writer sealed a torn trailing line left by a crash, so a
// reader can tell a sealed tear from mid-file corruption. Journals
// written by older servers also hold "accept" lines (a run was
// scheduled) and "campaign" lines; readers accept and ignore them.
type JournalEntry struct {
	// Schema is "repro-journal/v1".
	Schema string `json:"schema"`
	// Kind is "run" or "seal" ("accept" or "campaign" in older
	// journals).
	Kind string `json:"kind"`
	// ID is the run identity: the run key, derived seed and solve
	// parameters that make two requests the same run.
	ID string `json:"id,omitempty"`
	// Req is the request correlation ID — the same RequestID the SSE
	// frames, trace files and log lines carry, so a journal line joins
	// against every other signal of its run.
	Req string `json:"req,omitempty"`
	// Record is the completed run's result (kind "run").
	Record *campaign.Record `json:"record,omitempty"`
	// Offset is the byte offset at which a torn tail was sealed
	// (kind "seal").
	Offset int64 `json:"offset,omitempty"`
}

// JournalSink is the append target of the run journal. The server
// writes one full line (newline included) per Append; Sync forces the
// platform's durability barrier, and Close releases the file.
// Implementations must tolerate serialized calls from multiple
// goroutines (the journal layer holds its own lock around every call).
// The production sink is OpenJournal's *jsonl.File; the kill-and-replay
// harness injects a crashSink wrapper instead.
type JournalSink interface {
	Append(line []byte) error
	Sync() error
	Close() error
}

// OpenJournal opens (creating if missing) the journal file inside dir
// for appending and returns the production sink. A torn trailing line —
// the append a crash cut short — is sealed first: a newline closes the
// fragment (see jsonl.Open) and a "seal" entry records the offset, so
// readers skip the fragment instead of mistaking it for corruption.
// fsync true makes every append a durability barrier ("always"
// policy); false leaves flushing to the OS ("off" — faster, and a crash
// may lose the last few appends but never tears the resume contract,
// because lost runs simply re-execute).
func OpenJournal(dir string, fsync bool) (JournalSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, sealed, err := jsonl.Open(filepath.Join(dir, journalFile), true, fsync)
	if err != nil {
		return nil, err
	}
	if sealed >= 0 {
		seal, _ := json.Marshal(JournalEntry{Schema: JournalSchema, Kind: "seal", Offset: sealed})
		if err := f.Append(append(seal, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// JournalRead is the result of reading one journal file: the entries in
// append order, plus the byte offset of a torn trailing line when the
// file ends mid-append (-1 when the tail is clean). A torn tail is the
// expected signature of a crash and never an error; everything else
// that does not parse is.
type JournalRead struct {
	// Entries are the complete entries, in append order, seal markers
	// excluded.
	Entries []JournalEntry
	// TornOffset is the byte offset of the torn trailing line, or -1.
	TornOffset int64
}

// ReadJournal parses the journal inside dir with crash-shaped
// tolerance and everything-else strictness: a missing or empty file is
// a fresh start; a final line cut mid-append (no terminating newline,
// or unparseable and last) is reported as the torn tail and skipped; an
// unparseable line that a reopening writer already sealed (the next
// line is a "seal" entry) is skipped. Any other failure — mid-file
// garbage, a foreign schema tag, an entry missing its kind's required
// fields — fails hard, naming the file and the byte offset, because a
// journal that cannot be trusted must not silently under-resume.
func ReadJournal(dir string) (*JournalRead, error) {
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &JournalRead{TornOffset: -1}, nil
		}
		return nil, err
	}
	return parseJournal(path, data)
}

// parseJournal is ReadJournal over in-memory bytes (the fuzz target's
// entry point). name is used in diagnostics only.
func parseJournal(name string, data []byte) (*JournalRead, error) {
	jr := &JournalRead{TornOffset: -1}
	lines := jsonl.Scan(data)
	last := len(lines) - 1 // the last non-blank line
	for last >= 0 && lines[last].Blank() {
		last--
	}
	for i := 0; i <= last; i++ {
		l := lines[i]
		if l.Blank() {
			continue
		}
		e, perr := parseJournalLine(l.Bytes)
		switch {
		case !l.Terminated, perr != nil && i == last:
			// The torn tail: the append a crash cut short — even if the
			// fragment happens to parse, the write never completed, so
			// the run (if any) re-executes on resume — or an unparseable
			// final line (the newline made it to disk, the content did
			// not).
			jr.TornOffset = l.Offset
			return jr, nil
		case perr != nil && lines[i+1].Terminated && isSeal(lines[i+1].Bytes):
			// A sealed tear is forgiven: the reopening writer marked it.
			i++
		case perr != nil:
			return nil, fmt.Errorf("journal %s: %s at byte %d", name, perr, l.Offset)
		case e.Kind != "seal":
			// (A seal with no preceding tear — the tear's bytes never
			// reached disk — has nothing to forgive and is dropped.)
			jr.Entries = append(jr.Entries, e)
		}
	}
	return jr, nil
}

// isSeal reports whether line is a valid "seal" entry.
func isSeal(line []byte) bool {
	e, err := parseJournalLine(line)
	return err == nil && e.Kind == "seal"
}

// parseJournalLine decodes and structurally validates one line. The
// returned error is diagnostic text without position (the caller adds
// file and offset).
func parseJournalLine(line []byte) (JournalEntry, error) {
	var e JournalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return e, fmt.Errorf("corrupt entry (not valid JSON)")
	}
	if e.Schema != JournalSchema {
		return e, fmt.Errorf("foreign schema %q (want %q)", e.Schema, JournalSchema)
	}
	switch e.Kind {
	case "run":
		if e.ID == "" || e.Record == nil {
			return e, fmt.Errorf("run entry missing id or record")
		}
	case "seal", "accept", "campaign":
	default:
		return e, fmt.Errorf("unknown kind %q", e.Kind)
	}
	return e, nil
}

// runIdentity is the journal's notion of "the same run": the cell run
// key (axes + replicate), the derived per-run seed (which folds in the
// campaign seed and cell index), and the solve parameters that shape
// the result. Two requests with equal identity are the same
// deterministic computation, so a journaled record answers both. cell
// is the request's cell (see SpecCell).
func runIdentity(req *SolveRequest, cell campaign.Cell) string {
	return fmt.Sprintf("%s|%016x|g%d|t%g|i%d|r%d",
		cell.RunKey(req.Rep), campaign.RunSeed(req.Seed, req.Cell, req.Rep),
		req.Grid, req.Tol, req.MaxIter, req.MaxRestarts)
}

// JournalStats are the durability counters exposed through GET /stats
// (and mirrored on /metrics) while a journal directory is configured.
type JournalStats struct {
	// Records counts run identities with a journaled result — the runs
	// a restarted server serves without re-executing.
	Records int64 `json:"records"`
	// Hits counts requests answered from the journal instead of
	// executing.
	Hits int64 `json:"hits"`
	// Appends counts journal lines written; AppendErrors counts writes
	// the sink refused (each one is a run that will re-execute after a
	// restart — data loss worth alerting on, never a failed request).
	Appends      int64 `json:"appends"`
	AppendErrors int64 `json:"append_errors"`
	// Bytes is the journal file's size: what it held at startup plus
	// every line appended since. The journal is the whole durable
	// state, so this is the state's size on disk.
	Bytes int64 `json:"bytes"`
	// SealedTail is true when the journal carried a torn trailing line
	// at startup (the crash signature) and it was sealed.
	SealedTail bool `json:"sealed_tail,omitempty"`
}

// durable is the server's durability state: the journal sink and the
// identity-indexed record of every completed run. The journal is the
// only file it writes. All methods are safe for concurrent use.
type durable struct {
	mu         sync.Mutex
	sink       JournalSink
	records    map[string]campaign.Record
	sealedTail bool

	hits, appends, appendErrors, bytes atomic.Int64
}

// newDurable restores state from dir and opens the sink: a snapshot
// that an older server left there is merged first, then the journal is
// replayed over it (the union is idempotent, because older servers
// truncated the journal only after a snapshot had captured it). The
// snapshot is read, never rewritten. sink nil uses the production file
// sink.
func newDurable(dir string, fsync bool, sink JournalSink) (*durable, error) {
	d := &durable{records: make(map[string]campaign.Record)}
	snap, err := ReadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		maps.Copy(d.records, snap.Records)
	}
	jr, err := ReadJournal(dir)
	if err != nil {
		return nil, err
	}
	d.sealedTail = jr.TornOffset >= 0
	for _, e := range jr.Entries {
		if e.Kind == "run" {
			d.records[e.ID] = *e.Record
		}
	}
	if sink == nil {
		// Opening the writer seals any torn tail on disk, so the next
		// reader sees a forgiven tear, not corruption.
		if sink, err = OpenJournal(dir, fsync); err != nil {
			return nil, err
		}
	}
	// Seed the size gauge with what is already on disk, so a restarted
	// server's journal_bytes reflects the real file, not just this
	// process's appends.
	if st, err := os.Stat(filepath.Join(dir, journalFile)); err == nil {
		d.bytes.Store(st.Size())
	}
	d.sink = sink
	return d, nil
}

// append writes one entry through the sink. Append failures are
// counted, never propagated: the run's result is still sound and still
// answered — only its durability is lost, exactly as if the process had
// died before the write.
func (d *durable) append(e JournalEntry) {
	e.Schema = JournalSchema
	line, err := json.Marshal(e)
	if err != nil {
		d.appendErrors.Add(1)
		return
	}
	line = append(line, '\n')
	d.mu.Lock()
	err = d.sink.Append(line)
	d.mu.Unlock()
	if err != nil {
		d.appendErrors.Add(1)
		return
	}
	d.appends.Add(1)
	d.bytes.Add(int64(len(line)))
}

// lookup returns the journaled record for id, counting a hit; a nil
// durable (no journal directory) has none. A hit bypasses the pool, so
// /stats counts it as neither received nor completed — completed counts
// only executed runs, which the kill-and-replay harness relies on.
func (d *durable) lookup(id string) (campaign.Record, bool) {
	if d == nil {
		return campaign.Record{}, false
	}
	d.mu.Lock()
	rec, ok := d.records[id]
	d.mu.Unlock()
	if ok {
		d.hits.Add(1)
	}
	return rec, ok
}

// record journals one completed run and makes it answerable.
func (d *durable) record(id, req string, rec campaign.Record) {
	d.append(JournalEntry{Kind: "run", ID: id, Req: req, Record: &rec})
	d.mu.Lock()
	d.records[id] = rec
	d.mu.Unlock()
}

// close flushes the journal and releases the sink. The flush is what
// makes a clean shutdown durable when appends skip the fsync barrier
// (-journal-fsync off); a sink that refuses it — a dead process, in
// the kill-and-replay harness — counts one append error.
func (d *durable) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.sink.Sync(); err != nil {
		d.appendErrors.Add(1)
	}
	d.sink.Close()
}

// stats samples the durability counters.
func (d *durable) stats() JournalStats {
	d.mu.Lock()
	records := len(d.records)
	d.mu.Unlock()
	return JournalStats{
		Records:      int64(records),
		Hits:         d.hits.Load(),
		Appends:      d.appends.Load(),
		AppendErrors: d.appendErrors.Load(),
		Bytes:        d.bytes.Load(),
		SealedTail:   d.sealedTail,
	}
}

// crashSink is the kill-and-replay harness's journal writer (see
// KillReplay): it forwards to inner until a seeded crash point, then
// behaves exactly like a dead process — every subsequent append is
// refused. Every append is a "run" line. tearAtRun cuts the nth append
// mid-line (the torn-tail signature a restart must seal); dieAfterRun
// completes the nth append and then dies (the between-runs kill
// point); both are 1-based, 0 disables. kill crashes immediately from outside (the mid-stream
// kill points). onCrash fires once, from the goroutine that crashed —
// it must not block.
type crashSink struct {
	inner       JournalSink
	tearAtRun   int
	dieAfterRun int
	onCrash     func()

	runs    atomic.Int64
	crashed atomic.Bool
	once    sync.Once
}

// errCrashed is what a dead crashSink answers every call with.
var errCrashed = fmt.Errorf("journal sink: simulated crash")

// kill crashes the sink now.
func (c *crashSink) kill() {
	c.crashed.Store(true)
	if c.onCrash != nil {
		c.once.Do(c.onCrash)
	}
}

// Append implements JournalSink with the seeded crash behaviour.
func (c *crashSink) Append(line []byte) error {
	if c.crashed.Load() {
		return errCrashed
	}
	n := int(c.runs.Add(1))
	if n == c.tearAtRun {
		// Half a line, no newline: the mid-append tear.
		c.inner.Append(line[:len(line)/2])
		c.kill()
		return errCrashed
	}
	err := c.inner.Append(line)
	if n == c.dieAfterRun {
		c.kill()
	}
	return err
}

// Sync implements JournalSink.
func (c *crashSink) Sync() error {
	if c.crashed.Load() {
		return errCrashed
	}
	return c.inner.Sync()
}

// Close implements JournalSink. A crashed sink still closes the inner
// file, so harness passes do not leak descriptors.
func (c *crashSink) Close() error { return c.inner.Close() }
