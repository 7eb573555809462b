package campaign

import (
	"encoding/json"
	"os"
	"sync"

	"repro/internal/jsonl"
)

// Record is one run's result — one line of the campaign's JSONL stream
// (schema repro-campaign/v1). Records are self-describing: every axis
// value and the derived seed ride along, so a JSONL file can be
// aggregated, merged with other shards, or audited without its spec.
type Record struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"` // cell key + "/r<rep>" — the resume/dedup identity
	Cell    int    `json:"cell"`
	Rep     int    `json:"rep"`
	Seed    uint64 `json:"seed"`
	Solver  string `json:"solver"`
	Precond string `json:"precond"`
	Problem string `json:"problem"`
	Ranks   int    `json:"ranks"`
	Fault   string `json:"fault"`
	// Noise is the cell's noise-axis value ("uniform@0.2"); omitted
	// for noise-free cells, keeping pre-axis records byte-identical.
	Noise string `json:"noise,omitempty"`

	Converged bool `json:"converged"`
	Iters     int  `json:"iters"`
	// VTime is virtual seconds to solution, summed over global-restart
	// attempts (rank-kill): lost work of failed attempts included.
	VTime float64 `json:"vtime"`
	// Restarts counts solve attempts that lost a rank (rank-kill model).
	Restarts int `json:"restarts,omitempty"`
	// Discards counts unreliable inner results the reliable outer
	// iteration rejected (ftgmres).
	Discards int `json:"discards,omitempty"`
	// Relres is the final relative residual; -1 when the solve diverged
	// to a non-finite value.
	Relres float64 `json:"relres"`
	// Err records a configuration or unexpected communication error;
	// empty for a run that executed to a verdict.
	Err string `json:"err,omitempty"`
	// Transient marks an Err that came from infrastructure (a solve
	// service's transport failure or drain) rather than from the run
	// itself. A local Err is a deterministic outcome and resume rightly
	// skips it; a transient one is retryable, so ReadKeys does not
	// treat it as decided and aggregation prefers any non-transient
	// record for the same key.
	Transient bool `json:"transient,omitempty"`
}

// Writer streams records to a JSONL file as they complete. Each record
// is one O_APPEND write of one full line, so a killed campaign leaves
// at worst a single torn trailing line — which the reader skips — and
// every complete line is durable: the crash-safety contract -resume
// relies on.
type Writer struct {
	mu sync.Mutex
	f  *jsonl.File
}

// NewWriter opens path for appending records. With resume false the
// file is truncated (a fresh campaign); with resume true existing
// records are kept and new ones append after them, on their own line
// even when a kill left the last one torn (see jsonl.Open).
func NewWriter(path string, resume bool) (*Writer, error) {
	f, _, err := jsonl.Open(path, resume, false)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Append(append(data, '\n'))
}

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// parseRecords decodes the repro-campaign/v1 records among data's
// lines. A shard legitimately carries unparseable lines — the torn tail
// of a killed campaign, and earlier tears a resume sealed with a bare
// newline — so those are tallied, never fatal: bad counts the
// non-blank lines that are not JSON, foreign the ones that parse but
// carry another schema (firstForeign names the first such tag).
func parseRecords(data []byte) (recs []Record, bad, foreign int, firstForeign string) {
	for _, l := range jsonl.Scan(data) {
		if l.Blank() {
			continue
		}
		var rec Record
		switch {
		case json.Unmarshal(l.Bytes, &rec) != nil:
			bad++
		case rec.Schema != RunSchema:
			foreign++
			if firstForeign == "" {
				firstForeign = rec.Schema
			}
		default:
			recs = append(recs, rec)
		}
	}
	return recs, bad, foreign, firstForeign
}

// ReadRecords parses a JSONL file, skipping unparseable lines (the
// torn tail of a killed campaign) and records from other schemas. A
// missing file yields no records and no error — resuming into a fresh
// path is a fresh start.
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _, _, _ := parseRecords(data)
	return recs, nil
}

// ReadKeys returns the set of run keys already *decided* in the JSONL
// files — what a resumed or merging campaign skips. Records carrying a
// transient infrastructure error do not count as decided: a resume
// re-executes them, and aggregation prefers the fresh outcome.
func ReadKeys(paths ...string) (map[string]bool, error) {
	keys := make(map[string]bool)
	for _, p := range paths {
		recs, err := ReadRecords(p)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Transient {
				continue
			}
			keys[r.Key] = true
		}
	}
	return keys, nil
}
