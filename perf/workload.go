package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// passStats is what one pass (a sweep, a walk over the solve cells, a
// serve round) reports: ops attempted and failed, the timed wall, and
// the wall of each timed unit in milliseconds.
type passStats struct {
	ops, failed int
	wall        time.Duration
	lat         []float64
}

// instance is one set-up workload. pass(nil) is the end-to-end code
// path; pass(tracer) the traced path, recording or not (see tracer).
type instance interface {
	pass(tr *tracer) (passStats, error)
	// inputKeys is the generated op list of one pass, in order.
	inputKeys() []string
	// refs are the reference executions of the workload's identities.
	refs() []refRun
	// replicaCell is the clean gmres/bj-ilu cell the replica solves.
	replicaCell() (*campaign.Spec, campaign.Cell)
	close()
}

func newInstance(name string, seed uint64) (instance, error) {
	switch name {
	case "campaign_sweep":
		return newSweep(seed)
	case "solve_wide":
		return newSolve(wideSet(), seed)
	case "solve_deep":
		return newSolve(deepSet(), seed)
	case "serve_mix":
		return newServe(seed)
	}
	return nil, fmt.Errorf("perf: unknown workload %q", name)
}

// inputsFNV fingerprints a generated op list.
func inputsFNV(keys []string) uint64 {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // records and requests are plain data
	}
	return data
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	inputsFNV uint64 // fingerprint of the generated op list, printed as gen.inputs_fnv
}

// add accumulates one pass.
func (r *result) add(ps passStats) {
	r.Attempted += ps.ops
	r.Failed += ps.failed
}

// finish fills the metric map from measured numbers, insisting that
// the run emitted exactly the registry's names.
func (r *result) finish(defs []metricDef, got map[string]float64) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("perf: metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		delete(got, d.Name)
	}
	for name := range got {
		return fmt.Errorf("perf: metric %s is not in the registry", name)
	}
	return nil
}

// setUp builds the workload and runs its untimed warm-up pass: a cold
// first pass measured about twice as slow as a warm one.
func setUp(name string, seed uint64) (instance, error) {
	inst, err := newInstance(name, seed)
	if err != nil {
		return nil, err
	}
	if _, err := inst.pass(nil); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// pinProcs runs the rest of the caller on procs Ps (0 = leave alone)
// and returns the call that restores the previous setting.
func pinProcs(procs int) (restore func()) {
	if procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// perIdentityMedian is the mean over a pass's positions of the median,
// over passes, of the wall at that position. Every pass of an instance
// times the same identities in the same order.
func perIdentityMedian(passes [][]float64) float64 {
	n := len(passes[0])
	total := 0.0
	for i := 0; i < n; i++ {
		at := make([]float64, len(passes))
		for k, p := range passes {
			at[k] = p[i]
		}
		total += median(at)
	}
	return total / float64(n)
}

// runEndToEnd is the -trace 0 run: set up `setups` times, then run
// whole passes on the end-to-end path until seconds have elapsed (at
// least one pass), span recorder off.
func runEndToEnd(name string, seed uint64, seconds, setups int) (*result, error) {
	def, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("perf: unknown workload %q", name)
	}
	defer pinProcs(def.Procs)()
	var (
		inst   instance
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t := time.Now()
		var err error
		if inst, err = setUp(name, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer inst.close()

	res := &result{inputsFNV: inputsFNV(inst.inputKeys())}
	var (
		lat, rates []float64
		passes     [][]float64
	)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for {
		ps, err := inst.pass(nil)
		if err != nil {
			return nil, err
		}
		res.add(ps)
		lat = append(lat, ps.lat...)
		passes = append(passes, ps.lat)
		rates = append(rates, float64(ps.ops-ps.failed)/ps.wall.Seconds())
		if !time.Now().Before(deadline) {
			break
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	sort.Float64s(lat)
	p50 := quantile(lat, 0.5)
	if def.PerIdentity {
		p50 = perIdentityMedian(passes)
	}
	return res, res.finish(e2eMetrics, map[string]float64{
		"setup_s":     median(setupS),
		"ops_per_s":   median(rates),
		"op_p50_ms":   p50,
		"op_tail_ms":  quantile(lat, def.TailQ),
		"peak_rss_mb": rss,
	})
}
