package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// progressBuffer bounds the per-solve progress queue. A slow SSE
// consumer drops progress events past this depth instead of stalling
// the solver (the final result event is never dropped).
const progressBuffer = 4096

// writeSSE emits one Server-Sent Event with a JSON data payload. The
// request correlation ID rides the protocol's native id: field, so
// every frame of a stream names its request without widening any
// event payload schema.
func writeSSE(w http.ResponseWriter, fl http.Flusher, reqID, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %s\nevent: %s\ndata: %s\n\n", reqID, event, data)
	fl.Flush()
}

// sseFrame is one pending Server-Sent Event: its event name and JSON
// payload.
type sseFrame struct {
	event string
	v     any
}

// streamSolve answers a Stream=true solve request with Server-Sent
// Events: one "progress" event per solver iteration observed on rank 0
// (with its global-restart attempt and relative residual), one
// "discard" event per inner solve the sanitisation consensus rejected
// (ftgmres cells only), and a final "result" event carrying the
// SolveResponse. Events for one attempt arrive in iteration order; a
// consumer slower than the solver may lose intermediate events (never
// the result). A client that disconnects stops the event writer; the
// solve itself finishes in the background (a world cannot be cancelled
// mid-solve) and still counts in /stats.
func (s *Server) streamSolve(ctx context.Context, w http.ResponseWriter, run *solveRun) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	events := make(chan sseFrame, progressBuffer)
	emit := func(f sseFrame) {
		select {
		case events <- f:
		default:
			// Slow consumer: drop the event rather than stall the solve.
		}
	}
	done, ok := s.schedule(run, func(ev obs.Event) {
		switch ev.Name {
		case obs.EventIteration:
			emit(sseFrame{"progress", ProgressEvent{Attempt: ev.Attempt, Iter: ev.Iter, Relres: ev.Value}})
		case obs.EventDiscard:
			emit(sseFrame{"discard", DiscardEvent{Attempt: ev.Attempt, Solve: ev.Iter}})
		}
	})
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "queue full, retry later")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var rec campaign.Record
wait:
	for {
		select {
		case f := <-events:
			writeSSE(w, fl, run.reqID, f.event, f.v)
		case rec = <-done:
			break wait
		case <-ctx.Done():
			// Client gone: stop encoding frames into a severed pipe.
			return
		}
	}
	// The solve has finished, so no further events can be produced;
	// drain what is already queued, then emit the result.
	for {
		select {
		case f := <-events:
			writeSSE(w, fl, run.reqID, f.event, f.v)
		default:
			writeSSE(w, fl, run.reqID, "result", SolveResponse{Schema: Schema, RequestID: run.reqID, Record: rec})
			return
		}
	}
}

// streamRecorded answers a Stream=true solve whose result is already
// journaled: the SSE envelope with a single "result" event. Progress
// events are not replayed — the journal records results, not
// timelines; a consumer that needs the iteration trace re-runs with
// the journal disabled or consults the trace directory.
func (s *Server) streamRecorded(w http.ResponseWriter, reqID string, rec campaign.Record) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	writeSSE(w, fl, reqID, "result", SolveResponse{Schema: Schema, RequestID: reqID, Record: rec})
}

// errorRecord is the harness-error record for a run that could not
// execute (a rejection, or transport failures past Exec's retries). It
// carries the identity fields a real record would — via the one
// constructor campaign itself uses — so aggregation sees an errored
// replicate rather than a missing one. transient marks retryable
// infrastructure failures: resume re-executes those, and aggregation
// prefers the retry's real outcome; a permanent rejection stays a
// decided record.
func errorRecord(spec *campaign.Spec, cell campaign.Cell, rep int, msg string, transient bool) campaign.Record {
	rec := cell.Record(spec, rep)
	rec.Err = msg
	rec.Transient = transient
	return rec
}

// NewSolveRequest builds the repro-solve/v1 request for one (cell,
// replicate) of a campaign spec — the bridge from the campaign engine's
// cells to the wire, used by Client.Exec and the kill-and-replay
// harness alike.
func NewSolveRequest(spec *campaign.Spec, cell campaign.Cell, rep int) SolveRequest {
	return SolveRequest{
		Schema: Schema, Solver: cell.Solver, Precond: cell.Precond,
		Problem: cell.Problem, Ranks: cell.Ranks, Grid: spec.Grid,
		Fault: cell.Fault, Noise: cell.Noise,
		Seed: spec.Seed, Cell: cell.Index, Rep: rep,
		Tol: spec.Tol, MaxIter: spec.MaxIter, MaxRestarts: spec.MaxRestarts,
	}
}
