package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/machine"
	"repro/internal/stats"
)

// Quantiles are nearest-rank order statistics over one cell's
// successful replicates.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// TTS is the expected time-to-solution of one cell under the
// restart-until-success model: mean attempt cost divided by success
// probability, with a percentile-bootstrap 95% confidence interval
// over the replicates.
type TTS struct {
	Mean float64 `json:"mean"`
	CILo float64 `json:"ci_lo"`
	CIHi float64 `json:"ci_hi"`
}

// CellSummary is the aggregate of one grid cell's replicates.
type CellSummary struct {
	Key     string `json:"key"`
	Cell    int    `json:"cell"`
	Solver  string `json:"solver"`
	Precond string `json:"precond"`
	Problem string `json:"problem"`
	Ranks   int    `json:"ranks"`
	Fault   string `json:"fault"`
	// Noise is the cell's noise-axis value; omitted for noise-free
	// cells so pre-axis aggregates stay byte-identical.
	Noise string `json:"noise,omitempty"`

	Replicates int `json:"replicates"`
	Successes  int `json:"successes"`
	// SuccessRate is Successes over the error-free replicates —
	// harness errors (see Errors) are excluded from every statistic.
	SuccessRate float64 `json:"success_rate"`
	// Iters and VTime are quantiles over *successful* replicates —
	// "iterations/time to solution when it solves".
	Iters Quantiles `json:"iters"`
	VTime Quantiles `json:"vtime"`
	// Restarts and Discards are totals over all replicates.
	Restarts int `json:"restarts"`
	Discards int `json:"discards"`
	// ExpectedTTS is omitted when no replicate succeeded (the
	// restart-until-success expectation diverges).
	ExpectedTTS *TTS `json:"expected_tts,omitempty"`
	// Errors counts replicates that recorded a harness error.
	Errors int `json:"errors,omitempty"`
}

// Aggregate is the canonical content of a CAMPAIGN_<label>.json file
// (schema repro-campaign-agg/v1): the spec for provenance, one summary
// per grid cell, and campaign-wide totals. It is a pure function of
// the spec and the recorded runs — byte-identical across reruns,
// shard layouts and resume histories.
type Aggregate struct {
	Schema    string        `json:"schema"`
	Label     string        `json:"label"`
	Spec      Spec          `json:"spec"`
	Runs      int           `json:"runs"`
	Successes int           `json:"successes"`
	Cells     []CellSummary `json:"cells"`
}

// bootstrapResamples is the bootstrap replication count for the TTS
// confidence intervals.
const bootstrapResamples = 200

func newQuantiles(vals []float64) Quantiles {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Quantiles{P50: stats.Quantile(s, 0.50), P90: stats.Quantile(s, 0.90), P99: stats.Quantile(s, 0.99)}
}

// expectedTTS computes mean(vtime over reps)/successRate for one
// resample of replicate indices; ok is false when the resample has no
// successes.
func expectedTTS(recs []Record, idx []int) (float64, bool) {
	var sum float64
	succ := 0
	for _, i := range idx {
		sum += recs[i].VTime
		if recs[i].Converged {
			succ++
		}
	}
	if succ == 0 {
		return 0, false
	}
	n := float64(len(idx))
	return (sum / n) / (float64(succ) / n), true
}

// summarise folds one cell's replicates (sorted by rep) into its
// summary. seed is the campaign seed, for the deterministic bootstrap.
// Replicates that recorded a harness error are counted in Errors but
// excluded from every statistic: an infrastructure failure is not a
// fault-model outcome, and letting it into the denominators would
// print a harness bug as a solver success rate.
func summarise(cell Cell, recs []Record, seed uint64) CellSummary {
	cs := CellSummary{
		Key: cell.Key(), Cell: cell.Index,
		Solver: cell.Solver, Precond: cell.Precond, Problem: cell.Problem,
		Ranks: cell.Ranks, Fault: cell.Fault.String(),
		Replicates: len(recs),
	}
	if cell.Noise.Enabled() {
		cs.Noise = cell.Noise.String()
	}
	var valid []Record
	var iters, vtimes []float64
	for _, r := range recs {
		if r.Err != "" {
			cs.Errors++
			continue
		}
		valid = append(valid, r)
		cs.Restarts += r.Restarts
		cs.Discards += r.Discards
		if r.Converged {
			cs.Successes++
			iters = append(iters, float64(r.Iters))
			vtimes = append(vtimes, r.VTime)
		}
	}
	if len(valid) > 0 {
		cs.SuccessRate = float64(cs.Successes) / float64(len(valid))
	}
	cs.Iters = newQuantiles(iters)
	cs.VTime = newQuantiles(vtimes)

	if cs.Successes > 0 {
		all := make([]int, len(valid))
		for i := range all {
			all[i] = i
		}
		mean, _ := expectedTTS(valid, all)
		// Percentile bootstrap: resample replicates with replacement,
		// recompute the estimator, take the 2.5/97.5 percentiles of
		// the resamples that admit one (≥1 success).
		rng := machine.NewRNG(bootstrapSeed(seed, cell.Index))
		idx := make([]int, len(valid))
		var boots []float64
		for b := 0; b < bootstrapResamples; b++ {
			for i := range idx {
				idx[i] = rng.Intn(len(valid))
			}
			if v, ok := expectedTTS(valid, idx); ok {
				boots = append(boots, v)
			}
		}
		tts := &TTS{Mean: mean, CILo: mean, CIHi: mean}
		if len(boots) > 0 {
			sort.Float64s(boots)
			tts.CILo = stats.Quantile(boots, 0.025)
			tts.CIHi = stats.Quantile(boots, 0.975)
		}
		cs.ExpectedTTS = tts
	}
	return cs
}

// AggregateRecords folds run records (any shard mix, any order, later
// duplicates ignored) into the campaign aggregate. It is strict: every
// (cell, replicate) of the spec's grid must be present with the seed
// the spec derives, and unknown keys are rejected — an aggregate
// always describes exactly one complete campaign.
func AggregateRecords(spec Spec, label string, recs []Record) (*Aggregate, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		prev, ok := byKey[r.Key]
		// First record wins, except that a real outcome always beats a
		// transient infrastructure error — a resumed retry appends
		// after the transient record it replaces.
		if !ok || (prev.Transient && !r.Transient) {
			byKey[r.Key] = r
		}
	}
	agg := &Aggregate{Schema: AggSchema, Label: label, Spec: spec}
	cells := spec.Cells()
	var missing []string
	for _, cell := range cells {
		group := make([]Record, 0, spec.Replicates)
		for rep := 0; rep < spec.Replicates; rep++ {
			key := cell.RunKey(rep)
			rec, ok := byKey[key]
			if !ok {
				missing = append(missing, key)
				continue
			}
			if want := RunSeed(spec.Seed, cell.Index, rep); rec.Seed != want {
				return nil, fmt.Errorf("campaign: record %s has seed %d, spec derives %d — records from a different spec or seed", key, rec.Seed, want)
			}
			delete(byKey, key)
			group = append(group, rec)
		}
		if len(missing) > 0 {
			continue
		}
		cs := summarise(cell, group, spec.Seed)
		agg.Runs += cs.Replicates
		agg.Successes += cs.Successes
		agg.Cells = append(agg.Cells, cs)
	}
	if len(missing) > 0 {
		n := len(missing)
		if n > 5 {
			missing = missing[:5]
		}
		return nil, fmt.Errorf("campaign: %d run(s) missing (e.g. %v) — run the remaining shards or -resume first", n, missing)
	}
	for key := range byKey {
		return nil, fmt.Errorf("campaign: record %q does not belong to spec %q's grid", key, spec.Name)
	}
	return agg, nil
}

// AggregateFiles reads one or more JSONL shard files and aggregates
// them (see AggregateRecords). Unlike the lenient resume-path reader,
// every input must actually contribute: a missing file, an empty file,
// or a file whose lines all fail to parse as repro-campaign/v1 records
// is reported per file and fails the aggregation — a shard artifact
// that silently contributes nothing would otherwise surface only as a
// confusing "runs missing" error, or worse, not at all.
func AggregateFiles(spec Spec, label string, paths ...string) (*Aggregate, error) {
	var recs []Record
	for _, p := range paths {
		r, err := ReadShardFile(p)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r...)
	}
	return AggregateRecords(spec, label, recs)
}

// ReadShardFile reads one JSONL shard input strictly, for aggregation:
// the file must exist and yield at least one repro-campaign/v1 record.
// The error diagnoses what the file held instead — nothing at all,
// unparseable lines (beyond the one torn tail a killed campaign may
// leave), or records of a foreign schema.
func ReadShardFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: shard input %s: %w", path, err)
	}
	recs, bad, foreign, firstForeign := parseRecords(data)
	if len(recs) == 0 {
		var sample string
		switch lines := bad + foreign; {
		case lines == 0:
			sample = "file is empty"
		case foreign > 0:
			sample = fmt.Sprintf("%d line(s), none with schema %q (first foreign schema %q)", lines, RunSchema, firstForeign)
		default:
			sample = fmt.Sprintf("%d line(s), none parse as JSON records", lines)
		}
		return nil, fmt.Errorf("campaign: shard input %s holds no %s records: %s", path, RunSchema, sample)
	}
	return recs, nil
}

// WriteAggregate writes the canonical JSON encoding of agg to path —
// indented, trailing newline, key order fixed by the struct layout, so
// equal aggregates are byte-equal files.
func WriteAggregate(agg *Aggregate, path string) error {
	data, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadAggregate parses a CAMPAIGN_*.json file.
func ReadAggregate(path string) (*Aggregate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	agg, err := parseAggregate(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return agg, nil
}

// parseAggregate decodes an aggregate file's bytes, refusing an empty
// file, corrupt JSON and a foreign schema.
func parseAggregate(data []byte) (*Aggregate, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("empty file, not a %s aggregate", AggSchema)
	}
	var agg Aggregate
	if err := json.Unmarshal(data, &agg); err != nil {
		return nil, err
	}
	if agg.Schema != AggSchema {
		return nil, fmt.Errorf("schema %q, want %q", agg.Schema, AggSchema)
	}
	return &agg, nil
}
