// Package precond is the distributed preconditioning layer: operators
// M ≈ A whose inverse application z = M⁻¹·r is cheap, applied inside the
// Krylov solvers of internal/krylov to cut iteration counts on the hard
// (anisotropic, nonsymmetric) problems of internal/problems.
//
// Every implementation follows the same SPMD contract as internal/dist:
// each rank constructs the preconditioner from the same replicated
// global description, Setup is called collectively before the first
// application, and ApplyInto operates on this rank's block-row slab.
// The three families span the communication spectrum:
//
//   - Jacobi — diagonal scaling. Zero communication, O(n) setup, the
//     baseline every stronger preconditioner must beat.
//
//   - BlockJacobi — per-rank ILU(0) of the local diagonal block. Zero
//     communication per application (couplings to other ranks' rows are
//     simply dropped, which is exactly what makes it local), a real
//     incomplete factorisation inside the block.
//
//   - Chebyshev — a fixed-degree polynomial in the full distributed
//     operator. Each application costs `degree` halo exchanges but no
//     global reductions, making it the latency-tolerant choice in the
//     spirit of the paper's Relaxed Bulk-Synchronous argument (§II-B).
//
// Reliability is a first-class axis, matching the paper's Selective
// Reliability argument (§II-D, §III-D): Faulty exposes any
// preconditioner's applications to a fault plan, so a whole application
// can run as the low-reliability inner phase of srp's distributed
// FT-GMRES while the thin outer iteration stays reliable. The solvers
// never need to know — a preconditioner is just something with
// ApplyInto.
//
// All implementations are flop-counted (they charge the machine cost
// model through (*comm.Comm).Compute, so virtual-time results and the
// comm.Ledger see preconditioning work) and allocation-free in steady
// state: scratch is carved once at Setup, and a warmed-up ApplyInto
// performs zero heap allocations — pinned by the
// kernel/precond-*-apply-p4 entries of the benchdiff perf gate.
package precond
