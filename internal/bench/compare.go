package bench

import (
	"fmt"
	"io"
)

// Thresholds are the per-metric regression gates of Compare. Relative
// thresholds are fractions (0.25 = +25% allowed); set a threshold
// negative to disable that gate.
type Thresholds struct {
	// NsPerOp is the allowed relative wall-clock growth for kernels
	// (default 0.25). Wall-clock for experiments is not gated — it is
	// dominated by sweep sizes, and the deterministic virtual-time gate
	// below covers their cost model.
	NsPerOp float64
	// AllocsPerOp is the allowed absolute allocs/op growth for kernels
	// (default 0.01 — i.e. effectively "any regression fails", with just
	// enough slack for amortised-growth rounding).
	AllocsPerOp float64
	// VirtualTime is the allowed relative growth of an experiment's peak
	// virtual time (default 0.10). Virtual time is deterministic, so this
	// gate is machine-independent. At exactly 0 — CI's "nothing moved" —
	// growth alone is not enough: a refactor that drops a send, a
	// collective or a charge gets faster, so any change, in either
	// direction, of an experiment's integer ledger fields (rows, worlds,
	// sends, recvs, collectives, flops) is a regression too.
	VirtualTime float64
}

// DefaultThresholds returns benchdiff compare's default gates; CI
// tightens VirtualTime to zero growth (-vt 0).
func DefaultThresholds() Thresholds {
	return Thresholds{NsPerOp: 0.25, AllocsPerOp: 0.01, VirtualTime: 0.10}
}

// Regression is one gate violation found by Compare.
type Regression struct {
	Name   string  // result name
	Metric string  // which gate fired
	Old    float64 // baseline value
	New    float64 // current value
	Limit  float64 // the value the gate allowed
}

// String renders the regression as one aligned report line.
func (r Regression) String() string {
	return fmt.Sprintf("%-28s %-12s %12.4g -> %-12.4g (limit %.4g)", r.Name, r.Metric, r.Old, r.New, r.Limit)
}

// Compare gates cur against base and returns every regression found.
// Results present only in one report are not regressions (new benchmarks
// appear, retired ones disappear) — except results missing from cur that
// base had, which are reported as "missing" so a silently dropped
// benchmark cannot pass the gate. Comparing reports of different
// quick-ness is refused: their experiment scales are incomparable.
func Compare(base, cur *Report, th Thresholds) ([]Regression, error) {
	if base.Quick != cur.Quick {
		return nil, fmt.Errorf("cannot compare quick=%v against quick=%v reports", base.Quick, cur.Quick)
	}
	var regs []Regression
	for _, old := range base.Results {
		now, ok := cur.Lookup(old.Name)
		if !ok {
			regs = append(regs, Regression{Name: old.Name, Metric: "missing", Old: 1, New: 0, Limit: 1})
			continue
		}
		switch old.Kind {
		case "kernel":
			if th.NsPerOp >= 0 && old.NsPerOp > 0 {
				limit := old.NsPerOp * (1 + th.NsPerOp)
				if now.NsPerOp > limit {
					regs = append(regs, Regression{Name: old.Name, Metric: "ns/op", Old: old.NsPerOp, New: now.NsPerOp, Limit: limit})
				}
			}
			if th.AllocsPerOp >= 0 {
				limit := old.AllocsPerOp + th.AllocsPerOp
				if now.AllocsPerOp > limit {
					regs = append(regs, Regression{Name: old.Name, Metric: "allocs/op", Old: old.AllocsPerOp, New: now.AllocsPerOp, Limit: limit})
				}
			}
		case "experiment":
			if th.VirtualTime >= 0 && old.VirtualTime > 0 {
				limit := old.VirtualTime * (1 + th.VirtualTime)
				if now.VirtualTime > limit {
					regs = append(regs, Regression{Name: old.Name, Metric: "virtual-time", Old: old.VirtualTime, New: now.VirtualTime, Limit: limit})
				}
			}
			if th.VirtualTime == 0 {
				for _, f := range []struct {
					metric   string
					old, now float64
				}{
					{"rows", float64(old.Rows), float64(now.Rows)},
					{"worlds", float64(old.Worlds), float64(now.Worlds)},
					{"sends", float64(old.Sends), float64(now.Sends)},
					{"recvs", float64(old.Recvs), float64(now.Recvs)},
					{"collectives", float64(old.Collectives), float64(now.Collectives)},
					{"flops", old.Flops, now.Flops},
				} {
					if f.now != f.old {
						regs = append(regs, Regression{Name: old.Name, Metric: f.metric, Old: f.old, New: f.now, Limit: f.old})
					}
				}
			}
		}
	}
	return regs, nil
}

// RenderComparison writes a human-readable verdict for a Compare run.
func RenderComparison(w io.Writer, base, cur *Report, regs []Regression) {
	fmt.Fprintf(w, "baseline %q (%s)  vs  current %q (%s): %d result(s) compared\n",
		base.Label, base.GoVersion, cur.Label, cur.GoVersion, len(base.Results))
	if len(regs) == 0 {
		fmt.Fprintln(w, "OK: no regressions")
		return
	}
	fmt.Fprintf(w, "FAIL: %d regression(s)\n", len(regs))
	for _, r := range regs {
		fmt.Fprintf(w, "  %s\n", r)
	}
}
