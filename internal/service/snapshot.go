package service

import (
	"encoding/json"
	"fmt"
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
// writes none now — the journal alone is the state — but it still
// merges a snapshot it finds there before replaying the journal, so
// directories written by older servers keep resuming.
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

// ReadSnapshot loads the snapshot from dir. A missing file is a fresh
// start (nil, nil); an unreadable or foreign-schema snapshot is a hard
// error, because serving with silently amnesiac state would re-execute
// recorded runs — the operator must repair or remove the file
// deliberately.
func ReadSnapshot(dir string) (*Snapshot, error) {
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	snap, err := parseSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return snap, nil
}

// parseSnapshot decodes a snapshot file's bytes, refusing corrupt JSON
// and a foreign schema. Unknown keys are ignored, such as the
// "campaigns" cursors that servers with a /v1/campaign endpoint wrote
// and the "pending" and "cache_index" lists older servers wrote.
func parseSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("foreign schema %q (want %q)", snap.Schema, SnapshotSchema)
	}
	return &snap, nil
}
