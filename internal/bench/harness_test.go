package bench

import (
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRegistrySmoke runs every experiment ID in the registry — including
// the Slow scaling sweeps, at their Quick scales — and asserts each
// produces at least one row. This is the coverage the fast-only test
// above cannot give: an experiment that silently breaks at any scale now
// fails the suite.
func TestRegistrySmoke(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			table, err := RunMetered(id, RunCtx{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if table.ID != id {
				t.Errorf("%s: table carries ID %q", id, table.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: no rows at quick scale", id)
			}
			for _, row := range table.Rows {
				for _, cell := range row {
					if strings.Contains(cell, "ERR") {
						t.Errorf("%s: error cell %q", id, cell)
					}
				}
			}
		})
	}
}

// TestHarnessRunAndRoundTrip runs a tiny harness configuration end to
// end: one cheap experiment plus one kernel, written to and re-read from
// disk, with the ledger-derived comm metrics present.
func TestHarnessRunAndRoundTrip(t *testing.T) {
	rep, err := RunHarness(HarnessOptions{
		Label:       "test",
		Quick:       true,
		Repeat:      1,
		Experiments: []string{"F8"},
		KernelNames: []string{"kernel/dot-65536"},
		BenchTime:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("expected 2 results, got %d: %+v", len(rep.Results), rep.Results)
	}
	exp, ok := rep.Lookup("exp/F8")
	if !ok {
		t.Fatal("missing exp/F8 result")
	}
	if exp.Rows == 0 || exp.Worlds == 0 || exp.Collectives == 0 || exp.VirtualTime <= 0 {
		t.Errorf("experiment metrics not populated: %+v", exp)
	}
	kern, ok := rep.Lookup("kernel/dot-65536")
	if !ok {
		t.Fatal("missing kernel result")
	}
	if kern.NsPerOp <= 0 || kern.Iters == 0 {
		t.Errorf("kernel metrics not populated: %+v", kern)
	}
	if kern.AllocsPerOp != 0 {
		t.Errorf("dot kernel should be allocation-free, got %g allocs/op", kern.AllocsPerOp)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteReport(rep, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != "test" || len(back.Results) != 2 || !back.Quick {
		t.Errorf("round trip mangled the report: %+v", back)
	}
	if got, _ := back.Lookup("exp/F8"); got != exp {
		t.Errorf("round trip mangled exp/F8: %+v vs %+v", got, exp)
	}
}

// TestCompareGates covers the acceptance gate: an injected regression in
// any gated metric makes Compare (and hence `benchdiff compare`) fail,
// while an identical report passes.
func TestCompareGates(t *testing.T) {
	base := &Report{
		Schema: SchemaVersion, Label: "base", Quick: true,
		Results: []Result{
			{Name: "exp/F8", Kind: "experiment", NsPerOp: 5e8, VirtualTime: 0.02, Rows: 4, Worlds: 3, Sends: 40, Recvs: 40, Collectives: 12, Flops: 600},
			{Name: "kernel/dot-65536", Kind: "kernel", NsPerOp: 50000, AllocsPerOp: 0},
		},
	}
	clone := func() *Report {
		cp := *base
		cp.Results = append([]Result(nil), base.Results...)
		cp.Label = "cur"
		return &cp
	}
	th := DefaultThresholds()

	if regs, err := Compare(base, clone(), th); err != nil || len(regs) != 0 {
		t.Fatalf("identical reports should pass, got %v %v", regs, err)
	}

	// Kernel ns/op regression beyond +25%.
	cur := clone()
	cur.Results[1].NsPerOp = 50000 * 1.5
	regs, err := Compare(base, cur, th)
	if err != nil || len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("ns/op regression not caught: %v %v", regs, err)
	}

	// Any allocs/op growth.
	cur = clone()
	cur.Results[1].AllocsPerOp = 1
	regs, err = Compare(base, cur, th)
	if err != nil || len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("allocs/op regression not caught: %v %v", regs, err)
	}

	// Experiment virtual-time regression beyond +10%.
	cur = clone()
	cur.Results[0].VirtualTime = 0.02 * 1.2
	regs, err = Compare(base, cur, th)
	if err != nil || len(regs) != 1 || regs[0].Metric != "virtual-time" {
		t.Fatalf("virtual-time regression not caught: %v %v", regs, err)
	}

	// A dropped benchmark is a regression, a new one is not.
	cur = clone()
	cur.Results = cur.Results[:1]
	cur.Results = append(cur.Results, Result{Name: "kernel/brand-new", Kind: "kernel", NsPerOp: 1})
	regs, err = Compare(base, cur, th)
	if err != nil || len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing result not caught: %v %v", regs, err)
	}

	// Within-threshold drift passes.
	cur = clone()
	cur.Results[1].NsPerOp = 50000 * 1.2
	cur.Results[0].VirtualTime = 0.02 * 1.05
	if regs, err = Compare(base, cur, th); err != nil || len(regs) != 0 {
		t.Fatalf("within-threshold drift should pass, got %v %v", regs, err)
	}

	// At a zero virtual-time threshold any moved ledger count fails, in
	// either direction: a dropped send makes an experiment faster.
	exact := th
	exact.VirtualTime = 0
	if regs, err = Compare(base, clone(), exact); err != nil || len(regs) != 0 {
		t.Fatalf("identical reports should pass the exact gate, got %v %v", regs, err)
	}
	for metric, move := range map[string]func(*Result){
		"rows":        func(r *Result) { r.Rows++ },
		"worlds":      func(r *Result) { r.Worlds-- },
		"sends":       func(r *Result) { r.Sends-- },
		"recvs":       func(r *Result) { r.Recvs++ },
		"collectives": func(r *Result) { r.Collectives-- },
		"flops":       func(r *Result) { r.Flops -= 6 },
	} {
		cur = clone()
		move(&cur.Results[0])
		regs, err = Compare(base, cur, exact)
		if err != nil || len(regs) != 1 || regs[0].Metric != metric {
			t.Errorf("exact gate: a moved %s count gave %v %v, want one %q regression", metric, regs, err, metric)
		}
		if regs, err = Compare(base, cur, th); err != nil || len(regs) != 0 {
			t.Errorf("default thresholds: a moved %s count gave %v %v, want a pass", metric, regs, err)
		}
	}

	// Quick/full reports are incomparable.
	cur = clone()
	cur.Quick = false
	if _, err = Compare(base, cur, th); err == nil {
		t.Fatal("quick/full comparison should be refused")
	}
}

// TestRankKillExperimentsExact pins that the experiments which kill a
// rank mid-run — F4, C1 and T3, at full scale, where each one's kill
// really fires — report the same ledger on every rerun and at every
// GOMAXPROCS: everything but wall-clock in their results is a constant.
func TestRankKillExperimentsExact(t *testing.T) {
	reruns := 5
	if testing.Short() {
		reruns = 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func() []Result {
		rep, err := RunHarness(HarnessOptions{Experiments: []string{"F4", "C1", "T3"}, Repeat: 1, SkipKernels: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Results {
			rep.Results[i].NsPerOp = 0
		}
		return rep.Results
	}
	want := run()
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < reruns; i++ {
			if got := run(); !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d rerun %d:\n got %+v\nwant %+v", procs, i, got, want)
			}
		}
	}
}

// TestObsKernelsAllocationFree pins the observability cost contract:
// the disabled-telemetry path (every sink nil — the state an
// uninstrumented solve runs in) and live counter/histogram updates must
// both be allocation-free, so wiring obs through the hot paths cannot
// regress the repo's 0 allocs/op kernels.
func TestObsKernelsAllocationFree(t *testing.T) {
	rep, err := RunHarness(HarnessOptions{
		Label:       "obs",
		Quick:       true,
		Repeat:      1,
		KernelNames: []string{"kernel/obs-disabled-telemetry", "kernel/obs-disabled-span", "kernel/comm-disabled-span-p4", "kernel/obs-enabled-metrics"},
		BenchTime:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kernel/obs-disabled-telemetry", "kernel/obs-disabled-span", "kernel/comm-disabled-span-p4", "kernel/obs-enabled-metrics"} {
		k, ok := rep.Lookup(name)
		if !ok {
			t.Fatalf("missing %s result", name)
		}
		if k.AllocsPerOp != 0 {
			t.Errorf("%s: %g allocs/op, want 0", name, k.AllocsPerOp)
		}
		if k.NsPerOp <= 0 || k.Iters == 0 {
			t.Errorf("%s: metrics not populated: %+v", name, k)
		}
	}
}

// TestKernelsRegistry sanity-checks the kernel registry shape.
func TestKernelsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels() {
		if !strings.HasPrefix(k.Name, "kernel/") {
			t.Errorf("kernel name %q lacks kernel/ prefix", k.Name)
		}
		if seen[k.Name] {
			t.Errorf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
		if k.Setup == nil {
			t.Errorf("kernel %q has no setup", k.Name)
		}
	}
	if _, ok := KernelByName("kernel/dist-csr-apply-p4"); !ok {
		t.Error("halo-exchange kernel missing from registry")
	}
	if _, ok := KernelByName("nope"); ok {
		t.Error("KernelByName should miss unknown names")
	}
}
