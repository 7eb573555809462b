package service

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/campaign"
)

// SnapshotSchema is the version tag of the state snapshot older
// servers wrote.
const SnapshotSchema = "repro-snapshot/v1"

// snapshotFile is the snapshot's file name inside the journal
// directory.
const snapshotFile = "snapshot.json"

// Snapshot is the record map that older servers checkpointed into the
// journal directory, truncating the journal it captured. A server
// neither writes nor reads one now — the journal alone is the state —
// so a run that only an older server's snapshot held re-executes, to
// the identical record.
type Snapshot struct {
	// Schema is "repro-snapshot/v1".
	Schema string `json:"schema"`
	// Records maps run identity to the completed result — the runs a
	// restarted server answers from the journal instead of
	// re-executing.
	Records map[string]campaign.Record `json:"records"`
}

// WriteSnapshot atomically persists snap into dir: marshal to a temp
// file, fsync, rename over snapshot.json. A crash at any point leaves
// either the old snapshot or the new one, never a torn mix. No server
// calls it: its one caller is the perf harness's journal.snapshot_ms
// probe (perf/), which is why it stays exported.
func WriteSnapshot(dir string, snap *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(dir, snapshotFile+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, snapshotFile))
}
