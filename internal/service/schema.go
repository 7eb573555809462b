package service

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/campaign"
)

// Schema is the version tag every repro-solve/v1 request and response
// carries. Requests with a missing or different tag are rejected: the
// wire format is versioned so a future v2 can change shape without
// silently misreading v1 traffic.
const Schema = "repro-solve/v1"

// SolveRequest is the body of POST /v1/solve: one (cell, replicate) of
// a campaign grid, self-contained. The identity fields (Seed, Cell,
// Rep) feed campaign.RunSeed exactly as local execution would, which is
// what makes a remote run byte-identical to an in-process one.
type SolveRequest struct {
	// Schema must be "repro-solve/v1".
	Schema string `json:"schema"`

	// Solver, Precond, Problem, Ranks and Grid select the cell; the
	// values are the campaign axis constants. Precond defaults to
	// "none".
	Solver  string `json:"solver"`
	Precond string `json:"precond,omitempty"`
	Problem string `json:"problem"`
	Ranks   int    `json:"ranks"`
	Grid    int    `json:"grid"`
	// Fault is the fault model (default none).
	Fault campaign.FaultSpec `json:"fault,omitzero"`
	// Noise is the performance-noise model (default none).
	Noise campaign.NoiseSpec `json:"noise,omitzero"`

	// Seed is the campaign seed; Cell and Rep are the cell index and
	// replicate number. The run's own seed derives from the triple via
	// campaign.RunSeed.
	Seed uint64 `json:"seed"`
	Cell int    `json:"cell"`
	Rep  int    `json:"rep"`

	// Tol, MaxIter and MaxRestarts are the solve parameters a campaign
	// spec would carry.
	Tol         float64 `json:"tol"`
	MaxIter     int     `json:"max_iter"`
	MaxRestarts int     `json:"max_restarts,omitempty"`

	// Stream requests Server-Sent Events: per-iteration "progress"
	// events followed by one "result" event, instead of a single JSON
	// response.
	Stream bool `json:"stream,omitempty"`
}

// normalize fills the documented defaults in place.
func (r *SolveRequest) normalize() {
	if r.Precond == "" {
		r.Precond = campaign.PrecondNone
	}
	if r.Fault.Model == "" {
		r.Fault.Model = campaign.FaultNone
	}
}

// SpecCell reconstructs the single-cell campaign spec and cell this
// request describes. The spec carries exactly the fields ExecuteRunEnv
// reads, so a run executed from it is indistinguishable from one
// executed out of a full campaign grid.
func (r *SolveRequest) SpecCell() (campaign.Spec, campaign.Cell) {
	spec := campaign.Spec{
		Name:        "service",
		Seed:        r.Seed,
		Solvers:     []string{r.Solver},
		Preconds:    []string{r.Precond},
		Problems:    []string{r.Problem},
		Ranks:       []int{r.Ranks},
		Faults:      []campaign.FaultSpec{r.Fault},
		Noises:      []campaign.NoiseSpec{r.Noise},
		Replicates:  r.Rep + 1,
		Grid:        r.Grid,
		Tol:         r.Tol,
		MaxIter:     r.MaxIter,
		MaxRestarts: r.MaxRestarts,
	}
	cell := campaign.Cell{
		Index: r.Cell, Solver: r.Solver, Precond: r.Precond,
		Problem: r.Problem, Ranks: r.Ranks, Fault: r.Fault, Noise: r.Noise,
	}
	return spec, cell
}

// Validate normalizes the request and checks it structurally: schema
// tag, axis values (via the campaign spec validator), identity fields,
// and cell compatibility. It returns the request's spec and cell (see
// SpecCell), or a client-facing error.
func (r *SolveRequest) Validate() (spec campaign.Spec, cell campaign.Cell, err error) {
	if r.Schema != Schema {
		return spec, cell, fmt.Errorf("schema %q is not %q", r.Schema, Schema)
	}
	r.normalize()
	if r.Rep < 0 || r.Cell < 0 {
		return spec, cell, fmt.Errorf("cell %d / rep %d must be non-negative", r.Cell, r.Rep)
	}
	spec, cell = r.SpecCell()
	if err := spec.Validate(); err != nil {
		return spec, cell, err
	}
	if ok, why := campaign.Compatible(r.Solver, r.Precond, r.Problem, r.Fault); !ok {
		return spec, cell, fmt.Errorf("incompatible cell: %s", why)
	}
	return spec, cell, nil
}

// SolveResponse is the body of a non-streaming POST /v1/solve reply
// (and the payload of the final "result" SSE event of a streaming one).
type SolveResponse struct {
	// Schema is "repro-solve/v1".
	Schema string `json:"schema"`
	// RequestID is the deterministic correlation ID of the request
	// (see requestID) — the same value the SSE id: lines, journal
	// entries, trace file names and server log lines carry.
	RequestID string `json:"req,omitempty"`
	// Record is the run's result, exactly as local campaign execution
	// would have recorded it.
	Record campaign.Record `json:"record"`
}

// ProgressEvent is the payload of one "progress" SSE event.
type ProgressEvent struct {
	// Attempt is the global-restart attempt (0 unless the rank-kill
	// fault model restarted the solve).
	Attempt int `json:"attempt"`
	// Iter is the solver iteration within the attempt.
	Iter int `json:"iter"`
	// Relres is the relative residual after that iteration; -1 when
	// the solve diverged to a value JSON cannot carry (NaN/Inf).
	Relres float64 `json:"relres"`
}

// DiscardEvent is the payload of one "discard" SSE event: the inner
// sanitisation consensus of an ftgmres solve rejected one unreliable
// inner solve's result.
type DiscardEvent struct {
	// Attempt is the global-restart attempt the discard happened in.
	Attempt int `json:"attempt"`
	// Solve is the ordinal of the discarded inner solve (1-based, as
	// counted by the inner preconditioner across the attempt).
	Solve int `json:"solve"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	// Schema is "repro-solve/v1".
	Schema string `json:"schema"`
	// Error is the human-readable rejection reason.
	Error string `json:"error"`
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing garbage — a request that doesn't parse
// cleanly under the declared schema version is refused, never guessed
// at.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid request body: trailing data after the JSON value")
	}
	return nil
}
