// Package obs is the repository's telemetry substrate: a dependency-free,
// race-safe metrics registry with Prometheus text-format exposition, a
// structured per-run tracer (schema repro-trace/v1) whose events are
// stamped with *virtual* time — the simulated clock of internal/machine —
// so traces of a seeded run are byte-identical across reruns and across
// hosts, exactly like every other artifact this repository produces, and
// NewLogger, the log/slog text handler behind the long-running service's
// leveled key=value log lines.
//
// The metrics and the tracer are built so the disabled path costs nothing
// on hot kernels: every method is a no-op on a nil receiver, so code under
// measurement threads a possibly-nil *Counter, *Histogram or *RunTracer
// straight through its inner loops without branching on a config struct.
// The zero-allocation contract is pinned by the kernel micro-benchmarks
// (kernel/obs-disabled-telemetry and kernel/obs-disabled-span in
// internal/bench) and gated by cmd/benchdiff.
//
// The metrics half backs solverd's GET /metrics endpoint (see
// docs/OBSERVABILITY.md for the metric catalogue); the tracing half backs
// the campaign engine's -trace mode and the solve service's per-run trace
// files, recording per-iteration residuals, fault injections, rank kills,
// restarts, inner-solve discards, setup-cache hits and phase spans — the
// well-known catalogue in span.go (assembly, preconditioner setup/apply,
// SpMV, halo exchange, all-reduce, orthogonalization, sanitization,
// restart recovery) that internal/traceq turns into phase-attribution
// analytics.
package obs
