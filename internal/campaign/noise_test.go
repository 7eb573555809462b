package campaign

import (
	"encoding/json"
	"strings"
	"testing"
)

func noiseSpec(noises []NoiseSpec) Spec {
	return Spec{
		Name:       "noise-test",
		Seed:       11,
		Solvers:    []string{SolverPCG, SolverCG},
		Preconds:   []string{PrecondNone, PrecondJacobi},
		Problems:   []string{ProblemPoisson},
		Ranks:      []int{2},
		Faults:     []FaultSpec{{Model: FaultNone}, {Model: FaultBitflip, Rate: 1e-3}},
		Noises:     noises,
		Replicates: 1, Grid: 8, Tol: 1e-6, MaxIter: 200,
	}
}

// TestNoiseAxisExpansion: the noise axis is orthogonal — it multiplies
// the runnable grid without disturbing the pruning of the other four
// axes, noise-free cells keep their pre-axis keys, and noisy cells gain
// exactly one trailing key segment.
func TestNoiseAxisExpansion(t *testing.T) {
	base := noiseSpec(nil)
	noisy := noiseSpec([]NoiseSpec{{Model: NoiseNone}, {Model: NoiseUniform, Frac: 0.25}})
	if err := noisy.Validate(); err != nil {
		t.Fatal(err)
	}

	bc, nc := base.Cells(), noisy.Cells()
	if len(nc) != 2*len(bc) {
		t.Fatalf("noise axis [none, uniform] expands %d cells to %d, want exactly 2x", len(bc), len(nc))
	}
	for i, cell := range bc {
		none, uni := nc[2*i], nc[2*i+1]
		if none.Key() != cell.Key() {
			t.Errorf("cell %d: explicit noise=none key %q differs from pre-axis key %q", i, none.Key(), cell.Key())
		}
		if want := cell.Key() + "/uniform@0.25"; uni.Key() != want {
			t.Errorf("cell %d: noisy key %q, want %q", i, uni.Key(), want)
		}
	}

	// Pruning of the other axes survives the expansion: CG never takes
	// a preconditioner, with or without noise.
	for _, c := range nc {
		if c.Solver == SolverCG && c.Precond != PrecondNone {
			t.Fatalf("pruning lost under noise expansion: %s", c.Key())
		}
	}
	cov := noisy.Coverage()
	if cov.Noise != 2 {
		t.Errorf("coverage reports %d noise models, want 2", cov.Noise)
	}
	if noiseless := base.Coverage(); noiseless.Noise != 1 {
		t.Errorf("pre-axis coverage reports %d noise models, want 1 (none)", noiseless.Noise)
	}
}

// TestNoiseSpecValidation: unknown models and non-positive envelopes
// are structural errors, not silent no-noise runs.
func TestNoiseSpecValidation(t *testing.T) {
	bad := noiseSpec([]NoiseSpec{{Model: "pink"}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown noise model") {
		t.Errorf("unknown noise model not rejected: %v", err)
	}
	bad = noiseSpec([]NoiseSpec{{Model: NoiseUniform}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "positive frac") {
		t.Errorf("uniform noise without a frac not rejected: %v", err)
	}
	bad = noiseSpec([]NoiseSpec{{Frac: 0.2}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "without a model") {
		t.Errorf("frac without a model not rejected (would run silently noise-free): %v", err)
	}
	// The zero value and explicit "none" are aliases; listing both
	// would expand cells with colliding run keys.
	bad = noiseSpec([]NoiseSpec{{}, {Model: NoiseNone}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate noise") {
		t.Errorf("aliased duplicate noise values not rejected: %v", err)
	}
}

// TestNoisyRunDeterministicAndSlower: a noisy run reproduces bitwise
// under its derived seed (jitter draws come from the world's seeded
// RNGs) and costs strictly more virtual time than its clean twin —
// jitter only ever adds delay.
func TestNoisyRunDeterministicAndSlower(t *testing.T) {
	spec := noiseSpec([]NoiseSpec{{Model: NoiseNone}, {Model: NoiseUniform, Frac: 0.25}})
	cells := spec.Cells()
	clean, noisy := cells[0], cells[1]
	if noisy.Noise.Model != NoiseUniform {
		t.Fatalf("cell 1 is %s, want the uniform-noise twin of cell 0", noisy.Key())
	}

	cleanRec := ExecuteRunEnv(&spec, clean, 0, nil)
	r1 := ExecuteRunEnv(&spec, noisy, 0, nil)
	r2 := ExecuteRunEnv(&spec, noisy, 0, nil)
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Errorf("noisy run is not reproducible:\n%s\n%s", b1, b2)
	}
	if r1.Err != "" || cleanRec.Err != "" {
		t.Fatalf("runs errored: %q, %q", r1.Err, cleanRec.Err)
	}
	if r1.Noise != "uniform@0.25" {
		t.Errorf("noisy record carries noise %q, want uniform@0.25", r1.Noise)
	}
	if cleanRec.Noise != "" {
		t.Errorf("clean record carries noise %q, want empty", cleanRec.Noise)
	}
	if !r1.Converged || !cleanRec.Converged {
		t.Fatalf("runs did not converge (noisy %v, clean %v)", r1.Converged, cleanRec.Converged)
	}
	if r1.Iters != cleanRec.Iters {
		t.Errorf("noise changed the arithmetic: %d iters vs %d clean", r1.Iters, cleanRec.Iters)
	}
	if r1.VTime <= cleanRec.VTime {
		t.Errorf("noisy run vtime %g not above clean twin %g", r1.VTime, cleanRec.VTime)
	}
}

// TestRecordNoiseRoundTrip: noisy records survive the JSONL round trip
// with their noise value, and noise-free records serialise without the
// field (pre-axis byte compatibility).
func TestRecordNoiseRoundTrip(t *testing.T) {
	rec := Record{Schema: RunSchema, Key: "k", Noise: "uniform@0.1"}
	data, _ := json.Marshal(rec)
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Noise != rec.Noise {
		t.Errorf("noise lost in round trip: %q", back.Noise)
	}
	clean, _ := json.Marshal(Record{Schema: RunSchema, Key: "k"})
	if strings.Contains(string(clean), "noise") {
		t.Errorf("noise-free record serialises a noise field: %s", clean)
	}
}
