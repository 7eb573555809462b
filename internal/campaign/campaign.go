// Package campaign is the sharded fault-campaign engine: it sweeps the
// solver × preconditioner × problem × rank-count × fault-model grid with
// many randomized replicates per cell and reports *distributions* —
// success rates, iteration and virtual-time quantiles, expected
// time-to-solution with bootstrap confidence intervals — instead of the
// single hand-picked runs of internal/bench.
//
// The paper's core claim is statistical: resilient algorithms (SRP, SkP,
// LFLR) beat global checkpoint/restart *in expectation* under random
// faults. One run per configuration cannot test an expectation; this
// package executes thousands and aggregates them.
//
// The moving parts:
//
//   - Spec declares the axes of a campaign declaratively; Cells expands
//     the grid, pruning combinations that are mathematically invalid
//     (CG on a nonsymmetric operator, Chebyshev without spectral
//     bounds, a pipelined solver with a communicating preconditioner).
//
//   - Every run's seed derives from (campaign seed, cell index,
//     replicate) through a SplitMix64 chain, so any run can be
//     reproduced in isolation and shards of one campaign never share
//     or reorder random streams.
//
//   - Run executes runs on a bounded worker pool; -shard k/n selects a
//     deterministic subset of cells so CI can fan a campaign out over
//     jobs. Results stream to a JSONL file as they complete
//     (crash-safe append), and a resumed campaign skips run keys
//     already recorded — the harness dogfooding the paper's
//     checkpoint/restart idea.
//
//   - Aggregate folds one or more JSONL files into the canonical
//     CAMPAIGN_<label>.json. Aggregation is a pure function of the
//     recorded runs and the spec, so two full campaigns with one seed
//     — or a killed-and-resumed one — produce byte-identical output.
package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fault"
)

// Schema versions of the two on-disk artifacts.
const (
	// RunSchema identifies one JSONL run record.
	RunSchema = "repro-campaign/v1"
	// AggSchema identifies the aggregate CAMPAIGN_*.json layout.
	AggSchema = "repro-campaign-agg/v1"
)

// Solver axis values.
const (
	SolverCG           = "cg"
	SolverPCG          = "pcg"
	SolverPipelinedPCG = "pipelined-pcg"
	SolverGMRES        = "gmres"
	SolverFGMRES       = "fgmres"
	SolverFTGMRES      = "ftgmres"
)

// Preconditioner axis values.
const (
	PrecondNone      = "none"
	PrecondJacobi    = "jacobi"
	PrecondBJILU     = "bj-ilu"
	PrecondChebyshev = "chebyshev"
)

// Problem axis values.
const (
	ProblemPoisson  = "poisson"  // 5-point Laplacian (SPD)
	ProblemAniso    = "aniso"    // anisotropic Poisson, eps 25:1 (SPD, constant diagonal)
	ProblemConvDiff = "convdiff" // recirculating convection–diffusion (nonsymmetric)
	ProblemHeat     = "heat"     // backward-Euler heat matrix I + ν·L (SPD, well conditioned)
)

// Fault-model axis values.
const (
	FaultNone          = "none"           // clean baseline
	FaultBitflip       = "bitflip"        // per-element bit-flip rate on SpMV outputs
	FaultRankKill      = "rankkill"       // process death, global-restart recovery
	FaultFaultyPrecond = "faulty-precond" // bit-flip rate on preconditioner outputs
)

// Noise-model axis values.
const (
	NoiseNone    = "none"    // ideal machine: equal work takes equal time
	NoiseUniform = "uniform" // uniform jitter: each compute phase stretched by U(0, frac·d)
)

// NoiseSpec selects one performance-noise model and its intensity —
// the campaign's hook into the machine.Noise family (paper §II-B: OS
// and error-correction jitter is the first casualty of decreasing
// reliability). The zero value means no noise, so specs written before
// the axis existed keep their meaning, their cell keys and their
// aggregates byte-for-byte.
type NoiseSpec struct {
	// Model is one of the Noise* constants; "" means none.
	Model string `json:"model,omitempty"`
	// Frac is the uniform-jitter envelope: every compute phase is
	// extended by a uniform draw in [0, Frac·duration].
	Frac float64 `json:"frac,omitempty"`
}

// Enabled reports whether the spec names a real noise model (the zero
// value and explicit "none" are both noise-free).
func (n NoiseSpec) Enabled() bool { return n.Model != "" && n.Model != NoiseNone }

// String renders the noise axis value used in run keys and reports,
// e.g. "uniform@0.2"; the none/zero value renders as "none".
func (n NoiseSpec) String() string {
	if !n.Enabled() {
		return NoiseNone
	}
	return n.Model + "@" + strconv.FormatFloat(n.Frac, 'g', -1, 64)
}

func (n NoiseSpec) validate() error {
	switch n.Model {
	case "", NoiseNone:
		// A frac without a model is a misspelled noisy cell, not a
		// clean one — running it silently noise-free would be the
		// axis-wide version of a typo'd flag.
		if n.Frac != 0 {
			return fmt.Errorf("noise frac %g set without a model (want \"model\": %q)", n.Frac, NoiseUniform)
		}
	case NoiseUniform:
		if n.Frac <= 0 {
			return fmt.Errorf("noise %s needs a positive frac, got %g", n.Model, n.Frac)
		}
	default:
		return fmt.Errorf("unknown noise model %q", n.Model)
	}
	return nil
}

// FaultSpec selects one fault model and its intensity.
type FaultSpec struct {
	// Model is one of the Fault* constants.
	Model string `json:"model"`
	// Rate is the per-element flip probability per pass (bitflip and
	// faulty-precond models).
	Rate float64 `json:"rate,omitempty"`
	// MTBF is the rank-kill model's mean number of operator
	// applications between process failures (exponentially
	// distributed; one victim rank per solve attempt).
	MTBF float64 `json:"mtbf,omitempty"`
}

// String renders the fault axis value used in run keys and reports,
// e.g. "bitflip@0.001" or "rankkill@300".
func (f FaultSpec) String() string {
	switch f.Model {
	case FaultBitflip, FaultFaultyPrecond:
		return f.Model + "@" + strconv.FormatFloat(f.Rate, 'g', -1, 64)
	case FaultRankKill:
		return f.Model + "@" + strconv.FormatFloat(f.MTBF, 'g', -1, 64)
	default:
		return f.Model
	}
}

// plan compiles the fault axis value into one attempt's fault plan:
// bitflip and faulty-precond are sustained flips at every rank's
// operator or preconditioner applies; rankkill is one kill at an
// operator apply, its victim and strike drawn from the seed — a single
// victim keeps the death clock, and with it the recorded lost work,
// deterministic under any scheduling. none compiles to no entry.
func (f FaultSpec) plan(seed uint64) fault.Plan {
	var e fault.Entry
	switch f.Model {
	case FaultBitflip:
		e = fault.Sustained(fault.SiteApply, f.Rate)
	case FaultFaultyPrecond:
		e = fault.Sustained(fault.SitePrecond, f.Rate)
	case FaultRankKill:
		e = fault.Entry{Kind: fault.Kill, Rank: fault.Drawn, Site: fault.SiteApply, MTBF: f.MTBF}
	default:
		return fault.Plan{}
	}
	return fault.Plan{Seed: seed, Entries: []fault.Entry{e}}
}

func (f FaultSpec) validate() error {
	switch f.Model {
	case FaultNone:
	case FaultBitflip, FaultFaultyPrecond:
		if f.Rate <= 0 || f.Rate >= 1 {
			return fmt.Errorf("fault %s needs a rate in (0, 1), got %g", f.Model, f.Rate)
		}
	case FaultRankKill:
		if f.MTBF <= 0 {
			return fmt.Errorf("fault %s needs a positive MTBF, got %g", f.Model, f.MTBF)
		}
	default:
		return fmt.Errorf("unknown fault model %q", f.Model)
	}
	return nil
}

// Spec declares one campaign: the grid axes, the replicate count per
// cell, and the solve parameters shared by every run. A Spec is plain
// data — campaigns are defined in code (QuickSpec, FullSpec) or loaded
// from a JSON file, and the whole Spec is embedded in the aggregate
// report for provenance.
type Spec struct {
	Name     string      `json:"name"`
	Seed     uint64      `json:"seed"`
	Solvers  []string    `json:"solvers"`
	Preconds []string    `json:"preconds"`
	Problems []string    `json:"problems"`
	Ranks    []int       `json:"ranks"`
	Faults   []FaultSpec `json:"faults"`
	// Noises is the performance-noise axis; empty means the single
	// value "none" (the pre-axis grid, bit-compatible).
	Noises     []NoiseSpec `json:"noises,omitempty"`
	Replicates int         `json:"replicates"`
	// Grid is the PDE mesh edge: every problem is generated on a
	// Grid×Grid interior, so the operator dimension is Grid².
	Grid        int     `json:"grid"`
	Tol         float64 `json:"tol"`
	MaxIter     int     `json:"max_iter"`
	MaxRestarts int     `json:"max_restarts"` // rank-kill global-restart cap per run
}

var knownSolvers = map[string]bool{
	SolverCG: true, SolverPCG: true, SolverPipelinedPCG: true, SolverGMRES: true, SolverFGMRES: true, SolverFTGMRES: true,
}

var knownPreconds = map[string]bool{
	PrecondNone: true, PrecondJacobi: true, PrecondBJILU: true, PrecondChebyshev: true,
}

var knownProblems = map[string]bool{
	ProblemPoisson: true, ProblemAniso: true, ProblemConvDiff: true, ProblemHeat: true,
}

// spdProblems lists the symmetric positive definite workloads — the
// ones the CG family and the Chebyshev preconditioner are valid on.
var spdProblems = map[string]bool{
	ProblemPoisson: true, ProblemAniso: true, ProblemHeat: true,
}

// Validate checks the spec for structural errors: unknown or repeated
// axis values, empty axes, impossible rank counts. It does not prune
// incompatible cells — that is Cells' job.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Solvers) == 0 || len(s.Preconds) == 0 || len(s.Problems) == 0 || len(s.Ranks) == 0 || len(s.Faults) == 0 {
		return fmt.Errorf("campaign: spec %q has an empty axis", s.Name)
	}
	for _, v := range s.Solvers {
		if !knownSolvers[v] {
			return fmt.Errorf("campaign: unknown solver %q", v)
		}
	}
	for _, v := range s.Preconds {
		if !knownPreconds[v] {
			return fmt.Errorf("campaign: unknown preconditioner %q", v)
		}
	}
	for _, v := range s.Problems {
		if !knownProblems[v] {
			return fmt.Errorf("campaign: unknown problem %q", v)
		}
	}
	if s.Grid < 4 {
		return fmt.Errorf("campaign: grid %d too small (need ≥ 4)", s.Grid)
	}
	for _, p := range s.Ranks {
		if p < 1 || p > s.Grid*s.Grid {
			return fmt.Errorf("campaign: rank count %d outside [1, %d]", p, s.Grid*s.Grid)
		}
	}
	for _, f := range s.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, nz := range s.Noises {
		if err := nz.validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	same := func(v string) string { return v }
	for _, err := range []error{
		distinct("solver", s.Solvers, same),
		distinct("precond", s.Preconds, same),
		distinct("problem", s.Problems, same),
		distinct("rank", s.Ranks, func(p int) string { return fmt.Sprintf("p%d", p) }),
		distinct("fault", s.Faults, FaultSpec.String),
		distinct("noise", s.Noises, NoiseSpec.String),
	} {
		if err != nil {
			return err
		}
	}
	if s.Replicates < 1 {
		return fmt.Errorf("campaign: replicates %d < 1", s.Replicates)
	}
	if s.Tol <= 0 || s.MaxIter < 1 {
		return fmt.Errorf("campaign: need positive tol and max_iter")
	}
	if s.MaxRestarts < 0 {
		return fmt.Errorf("campaign: max_restarts %d < 0", s.MaxRestarts)
	}
	return nil
}

// distinct rejects an axis that lists one value twice, as the value
// renders in cell keys: two entries with one rendering (a repeated
// solver, or the zero noise value beside an explicit "none") would
// expand to distinct cells with colliding run keys, which execute fine
// but can never aggregate.
func distinct[T any](axis string, vals []T, render func(T) string) error {
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		k := render(v)
		if seen[k] {
			return fmt.Errorf("campaign: duplicate %s axis value %q", axis, k)
		}
		seen[k] = true
	}
	return nil
}

// Cell is one point of the expanded campaign grid. Index is the cell's
// position among the *runnable* cells of its spec — the value sharding
// and per-run seed derivation key on.
type Cell struct {
	Index   int       `json:"index"`
	Solver  string    `json:"solver"`
	Precond string    `json:"precond"`
	Problem string    `json:"problem"`
	Ranks   int       `json:"ranks"`
	Fault   FaultSpec `json:"fault"`
	// Noise is the cell's performance-noise model; the zero value (no
	// noise) is omitted from keys and JSON so pre-axis campaigns stay
	// byte-identical.
	Noise NoiseSpec `json:"noise,omitzero"`
}

// Key returns the canonical cell identifier,
// e.g. "pcg/jacobi/poisson/p4/bitflip@0.001" — with a trailing noise
// segment ("…/uniform@0.2") only when the cell carries noise.
func (c Cell) Key() string {
	k := c.Solver + "/" + c.Precond + "/" + c.Problem + "/p" + strconv.Itoa(c.Ranks) + "/" + c.Fault.String()
	if c.Noise.Enabled() {
		k += "/" + c.Noise.String()
	}
	return k
}

// RunKey returns the identifier of one replicate of this cell — the
// key resume matching and aggregation dedup with.
func (c Cell) RunKey(rep int) string {
	return c.Key() + "/r" + strconv.Itoa(rep)
}

// Record returns the identity-only record of one (cell, replicate):
// every axis and seed field filled, no outcome yet. ExecuteRunEnv
// starts from it, and embedding services use it to synthesize
// harness-error records (transport failure, server draining) that
// aggregate exactly like locally produced ones — one constructor, so
// a new Record field cannot silently go missing from either path.
func (c Cell) Record(spec *Spec, rep int) Record {
	rec := Record{
		Schema: RunSchema, Key: c.RunKey(rep), Cell: c.Index, Rep: rep,
		Solver: c.Solver, Precond: c.Precond, Problem: c.Problem,
		Ranks: c.Ranks, Fault: c.Fault.String(),
		Seed: RunSeed(spec.Seed, c.Index, rep),
	}
	if c.Noise.Enabled() {
		rec.Noise = c.Noise.String()
	}
	return rec
}

// Compatible reports whether a (solver, precond, problem, fault)
// combination is mathematically meaningful, and if not, why. The rules
// mirror the solver-layer contracts:
//
//   - the CG family requires an SPD operator, and CG itself takes no
//     preconditioner;
//   - PCG requires an SPD preconditioner (Jacobi, Chebyshev — ILU(0)
//     of an SPD matrix is not symmetric);
//   - the pipelined PCG may only overlap communication-free
//     preconditioners (none, Jacobi);
//   - Chebyshev needs known spectral bounds, which only the SPD model
//     problems provide;
//   - FT-GMRES's preconditioner axis selects the *inner* stack: none
//     or the faulty block-ILU of experiment P3;
//   - the faulty-precond fault model needs a preconditioner to corrupt.
//
// The noise axis is orthogonal: jitter stretches compute phases in
// virtual time but changes no arithmetic, so every noise value is
// compatible with every runnable (solver, precond, problem, fault)
// combination and the pruning rules above apply unchanged across the
// noise expansion.
func Compatible(solver, prec, problem string, fault FaultSpec) (bool, string) {
	spd := spdProblems[problem]
	switch solver {
	case SolverCG:
		if !spd {
			return false, "cg needs an SPD operator"
		}
		if prec != PrecondNone {
			return false, "cg takes no preconditioner"
		}
	case SolverPCG:
		if !spd {
			return false, "pcg needs an SPD operator"
		}
		if prec == PrecondBJILU {
			return false, "ILU(0) is not symmetric, invalid inside pcg"
		}
	case SolverPipelinedPCG:
		if !spd {
			return false, "pipelined-pcg needs an SPD operator"
		}
		if prec != PrecondNone && prec != PrecondJacobi {
			return false, "pipelined-pcg overlaps only communication-free SPD preconditioners"
		}
	case SolverGMRES, SolverFGMRES:
		// any problem; chebyshev gated below
	case SolverFTGMRES:
		if prec != PrecondNone && prec != PrecondBJILU {
			return false, "ftgmres inner phase supports none or bj-ilu"
		}
	}
	if prec == PrecondChebyshev && !spd {
		return false, "chebyshev needs SPD spectral bounds"
	}
	if fault.Model == FaultFaultyPrecond && prec == PrecondNone {
		return false, "faulty-precond needs a preconditioner to corrupt"
	}
	return true, ""
}

// noiseAxis returns the spec's noise axis, defaulting to the single
// no-noise value so pre-axis specs expand to their original grid.
func (s Spec) noiseAxis() []NoiseSpec {
	if len(s.Noises) == 0 {
		return []NoiseSpec{{}}
	}
	return s.Noises
}

// Cells expands the spec's grid in declaration order (solver, precond,
// problem, ranks, fault, noise — innermost last) and returns the
// runnable cells with their indices assigned; incompatible combinations
// are skipped and never consume an index, so sharding and seeding see a
// dense cell space.
func (s Spec) Cells() []Cell {
	var out []Cell
	for _, sol := range s.Solvers {
		for _, prec := range s.Preconds {
			for _, prob := range s.Problems {
				for _, p := range s.Ranks {
					for _, f := range s.Faults {
						if ok, _ := Compatible(sol, prec, prob, f); !ok {
							continue
						}
						for _, nz := range s.noiseAxis() {
							out = append(out, Cell{
								Index: len(out), Solver: sol, Precond: prec,
								Problem: prob, Ranks: p, Fault: f, Noise: nz,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// Coverage summarises the distinct axis values the runnable cells
// touch — the numbers the CI smoke campaign asserts floors on.
type Coverage struct {
	Cells, Runs                               int
	Solvers, Preconds, Problems, Fault, Noise int
}

// Coverage computes the runnable-grid coverage of the spec.
func (s Spec) Coverage() Coverage {
	cells := s.Cells()
	sol, prec, prob, flt, nz := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, c := range cells {
		sol[c.Solver] = true
		prec[c.Precond] = true
		prob[c.Problem] = true
		flt[c.Fault.Model] = true
		nz[c.Noise.String()] = true
	}
	return Coverage{
		Cells: len(cells), Runs: len(cells) * s.Replicates,
		Solvers: len(sol), Preconds: len(prec), Problems: len(prob), Fault: len(flt), Noise: len(nz),
	}
}

// mix64 is the SplitMix64 finalizer — the same mixer internal/machine's
// RNG uses, applied here as a pure hash.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RunSeed derives the deterministic seed of one run by chaining the
// SplitMix64 finalizer over the campaign seed, the cell index and the
// replicate number. Every run owns an independent stream: reproducing
// a single run needs only its (seed, cell, rep) triple, and no shard
// layout or completion order can perturb another run's randomness.
func RunSeed(seed uint64, cell, rep int) uint64 {
	x := mix64(seed ^ 0x6a09e667f3bcc909)
	x = mix64(x ^ uint64(cell)*0x9e3779b97f4a7c15)
	x = mix64(x ^ uint64(rep)*0xbf58476d1ce4e5b9)
	return x
}

// attemptSeed derives the seed of one global-restart attempt within a
// run (rank-kill model: each restart redraws victim and kill time).
func attemptSeed(runSeed uint64, attempt int) uint64 {
	return mix64(runSeed ^ uint64(attempt)*0x94d049bb133111eb)
}

// bootstrapSeed derives the aggregation-time bootstrap stream for one
// cell. It is disjoint from every run seed by construction (distinct
// salt) so resampling can never correlate with the runs it resamples.
func bootstrapSeed(seed uint64, cell int) uint64 {
	return mix64(mix64(seed^0x424f4f5453545250) ^ uint64(cell)*0x9e3779b97f4a7c15)
}

// RunRef identifies one (cell, replicate) of a spec's grid.
type RunRef struct {
	Cell Cell
	Rep  int
}

// ShardRuns expands every (cell, replicate) of the spec's grid owned
// by shard k of n (cells with Index % n == k), in deterministic
// cell-major order. shards < 1 means the whole grid.
func (s Spec) ShardRuns(shard, shards int) []RunRef {
	if shards < 1 {
		shard, shards = 0, 1
	}
	var out []RunRef
	for _, cell := range s.Cells() {
		if cell.Index%shards != shard {
			continue
		}
		for rep := 0; rep < s.Replicates; rep++ {
			out = append(out, RunRef{Cell: cell, Rep: rep})
		}
	}
	return out
}

// ParseShard parses a "k/n" shard selector into (k, n). Both parts
// must be complete integers — trailing garbage ("0/2x") is rejected
// rather than silently running the wrong slice of the grid.
func ParseShard(s string) (k, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("campaign: shard %q is not k/n", s)
	}
	k, errK := strconv.Atoi(parts[0])
	n, errN := strconv.Atoi(parts[1])
	if errK != nil || errN != nil {
		return 0, 0, fmt.Errorf("campaign: shard %q is not k/n", s)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("campaign: shard %d/%d out of range", k, n)
	}
	return k, n, nil
}
