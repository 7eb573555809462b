// Package repro's root benchmark suite: one testing.B sub-benchmark per
// experiment in the registry's index (F1–F10, T1–T4, A1–A2, P1–P4 and
// C1 — see docs/BENCHMARKING.md), plus the kernel micro-benchmarks.
// The kernels come from the same registry cmd/benchdiff measures
// (bench.Kernels), so `go test -bench` and the perf harness always
// agree on what they time; the experiment benchmarks attach
// virtual-time and communication metrics from the comm.Ledger so the
// simulated cost model is visible next to the wall-clock. The rendered
// experiment tables themselves come from `benchdiff tables` (the layer
// map in docs/ARCHITECTURE.md shows where each experiment's stack
// lives).
package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/comm"
)

// BenchmarkExperiments runs every experiment of the index
// (bench.Experiments) as one sub-benchmark, skipping the Slow scaling
// sweeps in -short mode.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		id := e.ID
		b.Run(id, func(b *testing.B) {
			if testing.Short() && e.Slow {
				b.Skipf("%s is a scaling sweep; skipped in -short mode", id)
			}
			var snap comm.LedgerSnapshot
			for i := 0; i < b.N; i++ {
				led := &comm.Ledger{}
				table, err := bench.RunMetered(id, bench.RunCtx{Seed: 1, Ledger: led})
				if err != nil {
					b.Fatal(err)
				}
				if len(table.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
				snap = led.Snapshot()
			}
			// The harness (cmd/benchdiff) records the same metrics into
			// BENCH_*.json; reporting them here keeps `go test -bench` and
			// the perf gate telling one story. All are deterministic per
			// seed.
			b.ReportMetric(snap.MaxClock, "vsec/op")
			b.ReportMetric(float64(snap.Stats.Collective), "colls/op")
			b.ReportMetric(float64(snap.Stats.Sends+snap.Stats.Recvs), "msgs/op")
			b.ReportMetric(snap.Stats.Flops, "flops/op")
		})
	}
}

// --- Kernel micro-benchmarks (real wall-clock, -benchmem) ---
//
// One sub-benchmark per entry of bench.Kernels(). The zero-allocation
// acceptance gates live here: kernel/dist-csr-apply-p4 (the halo
// exchange), kernel/gmres-serial-iter (one warmed-up GMRES iteration)
// and kernel/comm-allreduce-p8 must report 0 allocs/op.
func BenchmarkKernels(b *testing.B) {
	for _, k := range bench.Kernels() {
		b.Run(k.Name, func(b *testing.B) {
			body, cleanup := k.Setup()
			defer cleanup()
			body(1) // warm up pools and workspaces outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			body(b.N)
		})
	}
}
