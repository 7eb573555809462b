package obs

// EventSpan is the Name of span events: a closed phase interval on one
// rank's virtual timeline. A span event's T is the phase start, Dur its
// length, and Detail the phase name from the well-known catalogue below.
// Span events were added to repro-trace/v1 additively — the Dur field is
// omitted when zero, so traces written before spans existed still parse.
const EventSpan = "span"

// The well-known phase catalogue: every span event's Detail is one of
// these names. The set mirrors where a resilient Krylov solve actually
// spends virtual time — the attribution the paper's selective-reliability
// argument needs (which phases are cheap enough to protect, which are
// expensive enough to run unreliably).
const (
	// PhaseAssemble covers distributed-operator assembly: building the
	// rank's CSR slab and scattering the right-hand side. Assembly is
	// replicated and communication-free in this model, so its spans are
	// honest zero-width markers.
	PhaseAssemble = "assemble"
	// PhasePrecondSetup covers preconditioner Setup (or the equal-cost
	// adoption of a cached artifact).
	PhasePrecondSetup = "precond-setup"
	// PhasePrecondApply covers one preconditioner application.
	PhasePrecondApply = "precond-apply"
	// PhaseSpMV covers the local sparse matrix-vector kernel.
	PhaseSpMV = "spmv"
	// PhaseHaloExchange covers the ghost/halo exchange preceding a
	// distributed SpMV.
	PhaseHaloExchange = "halo-exchange"
	// PhaseAllreduce covers one blocking all-reduce (or the blocked tail
	// of a non-blocking one: for overlapped reductions the span is the
	// time the rank actually waited, not the in-flight window).
	PhaseAllreduce = "allreduce"
	// PhaseOrthogonalize covers one modified Gram-Schmidt pass: the
	// projection dots, the subtraction axpys and the closing norm.
	PhaseOrthogonalize = "orthogonalize"
	// PhaseSanitize covers FT-GMRES's reliable analyse-and-discard step
	// over an unreliable inner solve's result (paper §III-D).
	PhaseSanitize = "sanitize"
	// PhaseRestartRecovery covers the virtual time a global restart
	// throws away: the interval from the failed attempt's start to the
	// victim's death, emitted on the harness stream (rank -1). It
	// overlaps the lost attempt's compute spans by construction — it
	// re-labels lost work — so analytics report it separately from the
	// compute phases.
	PhaseRestartRecovery = "restart-recovery"
)

// Phases returns the well-known phase names in catalogue order.
func Phases() []string {
	return []string{
		PhaseAssemble, PhasePrecondSetup, PhasePrecondApply,
		PhaseSpMV, PhaseHaloExchange, PhaseAllreduce,
		PhaseOrthogonalize, PhaseSanitize, PhaseRestartRecovery,
	}
}
