// Package service is the long-running solve service behind cmd/solverd:
// an HTTP/JSON server that accepts single-solve requests, schedules
// them on a bounded worker pool, streams per-iteration progress, and
// caches the expensive setup work — problem assembly and
// preconditioner factorisation — across requests. A whole campaign
// goes through the service as the campaign engine posting each run
// (Client.Exec as campaign.Options.Exec), which is what
// `campaign -server`, Smoke and KillReplay all do.
//
// This is the ROADMAP's "heavy traffic" north-star made concrete: the
// same resilient solver stack that internal/campaign sweeps offline is
// exposed as a service, with internal/campaign doubling as the load
// generator and the correctness oracle (every run is a deterministic
// function of (spec, cell, rep), so a run executed over the wire must
// be byte-identical to one executed in-process — the loadgen test pins
// exactly that).
//
// The moving parts:
//
//   - A versioned request schema, repro-solve/v1 (schema.go): strict
//     decode — unknown fields, trailing garbage, wrong schema tags and
//     axis values incompatible under campaign.Compatible are all
//     rejected before any work is scheduled.
//
//   - A bounded worker pool (pool.go): requests queue up to a fixed
//     depth and execute on a fixed number of workers; a full queue
//     fails fast with 503 rather than letting latency grow without
//     bound. Queue depth and in-flight counts are visible in /stats.
//
//   - A setup cache (cache.go): problem assembly keyed by (problem,
//     grid) and preconditioner Setup artifacts keyed by (problem,
//     grid, ranks, precond, rank) — see precond.Cacheable. A cache hit
//     skips the real factorisation work but charges the same virtual
//     cost, so cached results stay bitwise identical to uncached ones.
//     Hit/miss counters are exposed in /stats.
//
//   - Streaming (stream.go): a solve request with "stream": true
//     receives Server-Sent Events — one "progress" event per solver
//     iteration (attempt, iteration, relative residual, fed from the
//     run's event stream) and a final "result" event.
//
//   - Graceful shutdown: the HTTP layer stops accepting, in-flight
//     solves drain to completion, and only then does the pool stop
//     (see Server.Close and cmd/solverd's signal handling).
//
// See docs/SERVICE.md for the wire schema, the streaming protocol, the
// cache semantics and a curl quickstart.
package service
