package campaign

import (
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// TraceFileName maps a run key to its trace file name: path separators
// flatten to underscores, so every run of a campaign traces into one
// directory.
func TraceFileName(runKey string) string {
	return strings.ReplaceAll(runKey, "/", "_") + ".trace.jsonl"
}

// WriteRunTrace persists one run's trace into dir as repro-trace/v1
// JSONL under the given file name (TraceFileName of the run key, or a
// name the caller correlates with an external identity: the solve
// service prefixes the request ID) and, when chrome is set, a sibling
// .chrome.json in Chrome trace-event format. A nil tracer writes
// nothing.
func WriteRunTrace(dir string, tr *obs.RunTracer, chrome bool, name string) error {
	if tr == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if chrome {
		cpath := strings.TrimSuffix(path, ".trace.jsonl") + ".chrome.json"
		cf, err := os.Create(cpath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(cf); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
	}
	return nil
}
