package obs

import "slices"

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

// phaseCatalogue is the well-known phase names in catalogue order.
var phaseCatalogue = [...]string{
	PhaseAssemble, PhasePrecondSetup, PhasePrecondApply,
	PhaseSpMV, PhaseHaloExchange, PhaseAllreduce,
	PhaseOrthogonalize, PhaseSanitize, PhaseRestartRecovery,
}

// Phases returns the well-known phase names in catalogue order.
func Phases() []string { return slices.Clone(phaseCatalogue[:]) }

// PhaseIndex returns phase's position in the Phases catalogue, or -1
// for a name outside it.
//
// It is a switch, not a search of the catalogue: the solve service
// looks up every span of every run, and the switch is three times
// faster.
func PhaseIndex(phase string) int {
	switch phase {
	case PhaseAssemble:
		return 0
	case PhasePrecondSetup:
		return 1
	case PhasePrecondApply:
		return 2
	case PhaseSpMV:
		return 3
	case PhaseHaloExchange:
		return 4
	case PhaseAllreduce:
		return 5
	case PhaseOrthogonalize:
		return 6
	case PhaseSanitize:
		return 7
	case PhaseRestartRecovery:
		return 8
	}
	return -1
}
