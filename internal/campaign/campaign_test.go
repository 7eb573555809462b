package campaign

import (
	"strings"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	good := QuickSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("QuickSpec invalid: %v", err)
	}
	if err := FullSpec().Validate(); err != nil {
		t.Fatalf("FullSpec invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
		{"empty axis", func(s *Spec) { s.Solvers = nil }, "empty axis"},
		{"bad solver", func(s *Spec) { s.Solvers = []string{"sor"} }, "unknown solver"},
		{"bad precond", func(s *Spec) { s.Preconds = []string{"amg"} }, "unknown precond"},
		{"bad problem", func(s *Spec) { s.Problems = []string{"stokes"} }, "unknown problem"},
		{"bad fault", func(s *Spec) { s.Faults = []FaultSpec{{Model: "meteor"}} }, "unknown fault"},
		{"bitflip no rate", func(s *Spec) { s.Faults = []FaultSpec{{Model: FaultBitflip}} }, "rate"},
		{"rankkill no mtbf", func(s *Spec) { s.Faults = []FaultSpec{{Model: FaultRankKill}} }, "MTBF"},
		{"too many ranks", func(s *Spec) { s.Ranks = []int{1 << 20} }, "rank count"},
		{"no replicates", func(s *Spec) { s.Replicates = 0 }, "replicates"},
		{"tiny grid", func(s *Spec) { s.Grid = 2 }, "grid"},
	}
	for _, tc := range cases {
		s := QuickSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecRejectsRepeatedAxisValues: a value listed twice on any axis —
// as it renders in cell keys — expands to cells whose run keys collide,
// which execute but can never aggregate, so Validate refuses the spec.
func TestSpecRejectsRepeatedAxisValues(t *testing.T) {
	cases := []struct {
		axis string
		mut  func(*Spec)
		want string
	}{
		{"solver", func(s *Spec) { s.Solvers = []string{SolverGMRES, SolverGMRES} }, `duplicate solver axis value "gmres"`},
		{"precond", func(s *Spec) { s.Preconds = []string{PrecondNone, PrecondJacobi, PrecondNone} }, `duplicate precond axis value "none"`},
		{"problem", func(s *Spec) { s.Problems = []string{ProblemHeat, ProblemHeat} }, `duplicate problem axis value "heat"`},
		{"rank", func(s *Spec) { s.Ranks = []int{2, 2} }, `duplicate rank axis value "p2"`},
		// An MTBF on a bitflip model renders nowhere, so both entries are
		// the one key segment "bitflip@0.001".
		{"fault", func(s *Spec) {
			s.Faults = []FaultSpec{{Model: FaultBitflip, Rate: 1e-3}, {Model: FaultBitflip, Rate: 1e-3, MTBF: 50}}
		}, `duplicate fault axis value "bitflip@0.001"`},
		{"noise", func(s *Spec) { s.Noises = []NoiseSpec{{}, {Model: NoiseNone}} }, `duplicate noise axis value "none"`},
	}
	for _, tc := range cases {
		s := QuickSpec()
		tc.mut(&s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s axis: got %v, want an error containing %s", tc.axis, err, tc.want)
		}
	}
}

func TestCellsIndicesAreDense(t *testing.T) {
	cells := QuickSpec().Cells()
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		seen[c.Key()] = true
		if ok, why := Compatible(c.Solver, c.Precond, c.Problem, c.Fault); !ok {
			t.Errorf("incompatible cell %s survived expansion: %s", c.Key(), why)
		}
	}
}

func TestCompatibilityRules(t *testing.T) {
	none := FaultSpec{Model: FaultNone}
	cases := []struct {
		solver, prec, problem string
		fault                 FaultSpec
		ok                    bool
	}{
		{SolverCG, PrecondNone, ProblemPoisson, none, true},
		{SolverCG, PrecondJacobi, ProblemPoisson, none, false}, // cg takes no precond
		{SolverCG, PrecondNone, ProblemConvDiff, none, false},  // cg needs SPD
		{SolverPCG, PrecondBJILU, ProblemPoisson, none, false}, // ILU not symmetric
		{SolverPCG, PrecondChebyshev, ProblemHeat, none, true},
		{SolverPipelinedPCG, PrecondChebyshev, ProblemPoisson, none, false}, // communicates
		{SolverPipelinedPCG, PrecondJacobi, ProblemAniso, none, true},
		{SolverGMRES, PrecondChebyshev, ProblemConvDiff, none, false}, // no bounds
		{SolverGMRES, PrecondBJILU, ProblemConvDiff, none, true},
		{SolverFGMRES, PrecondChebyshev, ProblemAniso, none, true},
		{SolverFTGMRES, PrecondJacobi, ProblemPoisson, none, false}, // inner stack is none|bj-ilu
		{SolverFTGMRES, PrecondBJILU, ProblemConvDiff, none, true},
		{SolverGMRES, PrecondNone, ProblemPoisson, FaultSpec{Model: FaultFaultyPrecond, Rate: 1e-3}, false},
		{SolverGMRES, PrecondJacobi, ProblemPoisson, FaultSpec{Model: FaultFaultyPrecond, Rate: 1e-3}, true},
	}
	for _, tc := range cases {
		ok, why := Compatible(tc.solver, tc.prec, tc.problem, tc.fault)
		if ok != tc.ok {
			t.Errorf("Compatible(%s, %s, %s, %s) = %v (%s), want %v",
				tc.solver, tc.prec, tc.problem, tc.fault, ok, why, tc.ok)
		}
	}
}

// TestQuickSpecCoverage pins the CI campaign's acceptance floor: at
// least 48 grid cells over ≥3 solvers, ≥3 preconditioners and ≥2
// non-clean fault models.
func TestQuickSpecCoverage(t *testing.T) {
	spec := QuickSpec()
	cov := spec.Coverage()
	if cov.Cells < 48 {
		t.Errorf("quick campaign covers %d cells, want ≥ 48", cov.Cells)
	}
	if cov.Solvers < 3 {
		t.Errorf("quick campaign covers %d solvers, want ≥ 3", cov.Solvers)
	}
	if cov.Preconds < 3 {
		t.Errorf("quick campaign covers %d preconditioners, want ≥ 3", cov.Preconds)
	}
	injecting := map[string]bool{}
	for _, c := range spec.Cells() {
		if c.Fault.Model != FaultNone {
			injecting[c.Fault.Model] = true
		}
	}
	if len(injecting) < 2 {
		t.Errorf("quick campaign covers %d fault models, want ≥ 2", len(injecting))
	}
}

func TestRunSeedIndependence(t *testing.T) {
	// Pinned: the derivation is a public contract — changing it makes
	// every recorded campaign irreproducible.
	if got := RunSeed(7, 0, 0); got != RunSeed(7, 0, 0) {
		t.Fatalf("RunSeed not deterministic: %d", got)
	}
	seen := make(map[uint64]string)
	for cell := 0; cell < 200; cell++ {
		for rep := 0; rep < 10; rep++ {
			s := RunSeed(7, cell, rep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between (%d,%d) and %s", cell, rep, prev)
			}
			seen[s] = Cell{Index: cell}.RunKey(rep)
		}
	}
	if RunSeed(7, 1, 0) == RunSeed(8, 1, 0) {
		t.Error("campaign seed does not perturb run seeds")
	}
	if attemptSeed(1, 0) == attemptSeed(1, 1) {
		t.Error("attempt seeds collide across restarts")
	}
	if bootstrapSeed(7, 3) == RunSeed(7, 3, 0) {
		t.Error("bootstrap stream collides with a run stream")
	}
}

func TestParseShard(t *testing.T) {
	k, n, err := ParseShard("1/4")
	if err != nil || k != 1 || n != 4 {
		t.Fatalf("ParseShard(1/4) = %d, %d, %v", k, n, err)
	}
	if k, n, err := ParseShard(""); err != nil || k != 0 || n != 1 {
		t.Fatalf("ParseShard empty = %d, %d, %v", k, n, err)
	}
	for _, bad := range []string{"x", "1", "2/2", "-1/2", "1/0", "a/b", "0/2x", "0x/2", "1/2/3"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}
