package service

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/campaign"
)

// RequestID derives the correlation ID of one solve request: "r-" plus
// the 16-hex-digit FNV-64a hash of the run identity (run key, derived
// seed, solve parameters). The ID is deterministic by design — the
// same run requested twice, or replayed from the journal after a
// restart, carries the same ID — so SSE frames, journal entries, trace
// files and log lines correlate across process lifetimes without any
// shared state.
func RequestID(req *SolveRequest) string {
	_, cell := req.SpecCell()
	return requestID(runIdentity(req, cell))
}

// requestID is RequestID from an already derived run identity.
func requestID(id string) string {
	h := fnv.New64a()
	io.WriteString(h, id)
	return fmt.Sprintf("r-%016x", h.Sum64())
}

// TraceName is the file name of one served run's trace: the request
// correlation ID, an underscore, then the campaign engine's canonical
// TraceFileName — so `ls tracedir/r-<id>_*` finds a request's trace
// and the suffix still parses as a run-key trace name.
func TraceName(reqID, runKey string) string {
	return reqID + "_" + campaign.TraceFileName(runKey)
}
