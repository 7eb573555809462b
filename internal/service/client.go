package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/campaign"
)

// Client talks repro-solve/v1 to a running solverd. The zero HTTP
// client is fine for in-process tests; production callers can install
// their own (timeouts, connection pools).
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8077".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (cl *Client) http() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// errTransient marks failures worth retrying: the server's explicit
// 503 backpressure and transport-level errors (connection refused or
// reset during a restart). Schema rejections (400) are permanent.
var errTransient = errors.New("service: transient failure")

// post sends one JSON body and decodes either the expected response or
// the server's ErrorResponse.
func (cl *Client) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := cl.http().Post(cl.Base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%w: %w", errTransient, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := "service: " + resp.Status
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			msg += ": " + e.Error
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			return fmt.Errorf("%w: %s", errTransient, msg)
		}
		return errors.New(msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A connection cut mid-body (server restart after the headers
		// went out) is as retryable as one cut before them.
		return fmt.Errorf("%w: reading response: %w", errTransient, err)
	}
	return nil
}

// Solve submits one run and returns its record.
func (cl *Client) Solve(req SolveRequest) (campaign.Record, error) {
	var resp SolveResponse
	if err := cl.post("/v1/solve", req, &resp); err != nil {
		return campaign.Record{}, err
	}
	if resp.Schema != Schema {
		return campaign.Record{}, fmt.Errorf("service: response schema %q is not %q", resp.Schema, Schema)
	}
	return resp.Record, nil
}

// execRetries, execBackoff and execBackoffCap shape Exec's retry
// schedule for transient failures: 15 attempts, exponential from
// 100 ms capped at 5 s — a total budget near 50 s, sized so sustained
// 503 backpressure from a busy-but-healthy server (a full queue of
// multi-second solves) drains within the budget instead of producing
// permanent error records.
const (
	execRetries    = 15
	execBackoff    = 100 * time.Millisecond
	execBackoffCap = 5 * time.Second
)

// Exec is the campaign.Options.Exec adapter `campaign -server` installs:
// it ships one (cell, replicate) to the server and returns the record —
// byte-identical to local execution when the transport succeeds.
// Transient failures (the server's 503 backpressure, connection errors
// during a restart) are retried with exponential backoff: a load
// generator outrunning the bounded pool must back off, not record
// permanent harness errors that a -resume would then skip forever. Only
// a permanent rejection or an exhausted retry budget produces a
// harness-error record (aggregation counts it under Errors).
func (cl *Client) Exec(spec *campaign.Spec, cell campaign.Cell, rep int) campaign.Record {
	req := NewSolveRequest(spec, cell, rep)
	var err error
	for attempt := 0; attempt < execRetries; attempt++ {
		if attempt > 0 {
			delay := execBackoff << (attempt - 1)
			if delay > execBackoffCap {
				delay = execBackoffCap
			}
			time.Sleep(delay)
		}
		var rec campaign.Record
		if rec, err = cl.Solve(req); err == nil {
			return rec
		}
		if !errors.Is(err, errTransient) {
			break
		}
	}
	// Only a genuinely transient failure (retry budget exhausted) is
	// worth a -resume retry; a permanent rejection is a decided outcome.
	return errorRecord(spec, cell, rep, err.Error(), errors.Is(err, errTransient))
}

// Healthz checks the server's health endpoint.
func (cl *Client) Healthz() error {
	resp, err := cl.http().Get(cl.Base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return err
	}
	if !h.OK {
		return fmt.Errorf("service: server reports not ok")
	}
	return nil
}

// Stats fetches the server's /stats counters.
func (cl *Client) Stats() (StatsResponse, error) {
	var st StatsResponse
	resp, err := cl.http().Get(cl.Base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}
