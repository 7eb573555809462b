package bench

import (
	"testing"
	"time"
)

// TestPrecondKernelsAllocationFree pins the PR's acceptance gate in the
// unit suite (not just the benchdiff baseline): a warmed-up
// preconditioner application — block-Jacobi's triangular sweeps and the
// Chebyshev polynomial with its halo exchanges — performs zero heap
// allocations per op.
func TestPrecondKernelsAllocationFree(t *testing.T) {
	for _, name := range []string{
		"kernel/precond-bjacobi-apply-p4",
		"kernel/precond-chebyshev-apply-p4",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			k, ok := kernelByName(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			res := measureKernel(k, 10*time.Millisecond)
			if res.AllocsPerOp > 0.01 {
				t.Errorf("%s: %g allocs/op, want 0", name, res.AllocsPerOp)
			}
		})
	}
}
