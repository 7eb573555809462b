package krylov

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/problems"
)

// distFamilyGolden pins the ten distributed entry points across
// versions as data: it was recorded by running this file in a clone of
// the commit before the solvers were folded into one Arnoldi engine, and
// a later build must reproduce every line. The file uses the exported
// API only, so it runs unchanged on either side of such a refactor. To
// re-record after a deliberate arithmetic change, delete the file and
// run the test: it writes the file and fails.
const distFamilyGolden = "testdata/dist_family.golden.jsonl"

// familyRun is one distributed entry point behind a common shape.
type familyRun func(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, restart, maxIter int) ([]float64, Stats, error)

func gmresRun(solve func(*comm.Comm, dist.Operator, []float64, []float64, DistGMRESOptions) ([]float64, Stats, error)) familyRun {
	return func(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, restart, maxIter int) ([]float64, Stats, error) {
		return solve(c, a, b, x0, DistGMRESOptions{Restart: restart, Tol: 1e-9, MaxIter: maxIter, Precon: m})
	}
}

// familySolvers lists the ten entry points. precon marks those that run
// the preconditioned scenarios; DistCGSGMRES ignored its preconditioner
// when the golden was recorded, so it runs the "none" scenarios only.
var familySolvers = []struct {
	name   string
	precon bool
	run    familyRun
}{
	{"DistGMRES", true, gmresRun(DistGMRES)},
	{"DistGMRESInner", true, gmresRun(DistGMRESInner)},
	{"DistFGMRES", true, gmresRun(DistFGMRES)},
	{"DistCGSGMRES", false, gmresRun(DistCGSGMRES)},
	{"DistP1GMRES", false, gmresRun(DistP1GMRES)},
	{"DistCG", false, func(c *comm.Comm, a dist.Operator, _ DistPreconditioner, b, x0 []float64, _, maxIter int) ([]float64, Stats, error) {
		return DistCG(c, a, b, x0, DistOptions{Tol: 1e-9, MaxIter: maxIter})
	}},
	{"DistPipelinedCG", false, func(c *comm.Comm, a dist.Operator, _ DistPreconditioner, b, x0 []float64, _, maxIter int) ([]float64, Stats, error) {
		return DistPipelinedCG(c, a, b, x0, DistOptions{Tol: 1e-9, MaxIter: maxIter})
	}},
	{"DistPCG", true, func(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, _, maxIter int) ([]float64, Stats, error) {
		return DistPCG(c, a, m, b, x0, DistOptions{Tol: 1e-9, MaxIter: maxIter})
	}},
	{"DistPipelinedPCG", true, func(c *comm.Comm, a dist.Operator, m DistPreconditioner, b, x0 []float64, _, maxIter int) ([]float64, Stats, error) {
		return DistPipelinedPCG(c, a, m, b, x0, DistOptions{Tol: 1e-9, MaxIter: maxIter})
	}},
	{"DistChebyshev", false, func(c *comm.Comm, a dist.Operator, _ DistPreconditioner, b, x0 []float64, _, maxIter int) ([]float64, Stats, error) {
		return DistChebyshev(c, a, b, x0, ChebyshevOptions{LambdaMin: 0.05, LambdaMax: 8, Tol: 1e-9, MaxIter: maxIter})
	}},
}

// flipBits flips one random bit of each element of v with probability
// rate, drawing from rng only.
func flipBits(rng *machine.RNG, rate float64, v []float64) {
	for i := range v {
		if rng.Float64() < rate {
			v[i] = math.Float64frombits(math.Float64bits(v[i]) ^ 1<<uint(rng.Intn(64)))
		}
	}
}

// familyOp is the operator under test: the clean product, scaled by
// 1e308 on every application after the first calm ones (calm < 0:
// never), then silent bit flips at the given rate.
type familyOp struct {
	dist.Operator
	rng   *machine.RNG
	rate  float64
	calm  int
	calls int
}

func (o *familyOp) Apply(x, y []float64) error {
	if err := o.Operator.Apply(x, y); err != nil {
		return err
	}
	if o.calls++; o.calm >= 0 && o.calls > o.calm {
		for i := range y {
			y[i] *= 1e308
		}
	}
	flipBits(o.rng, o.rate, y)
	return nil
}

// diagPrecon is a Jacobi-like preconditioner z = r/(d·(1+drift·k)) on
// its k-th application, with bit flips in z at rate corrupt: fixed,
// drifting, or drifting and corrupted.
type diagPrecon struct {
	c       *comm.Comm
	d       []float64
	drift   float64
	corrupt float64
	rng     *machine.RNG
	calls   int
}

func (m *diagPrecon) ApplyInto(r, z []float64) error {
	s := 1 + m.drift*float64(m.calls)
	m.calls++
	for i := range r {
		z[i] = r[i] / (m.d[i] * s)
	}
	m.c.Compute(float64(len(r)))
	flipBits(m.rng, m.corrupt, z)
	return nil
}

// familyScenario is one world and problem the ten entry points run on.
type familyScenario struct {
	name             string
	p                int
	flip             float64 // operator bit-flip rate
	precon           string  // none | fixed | drift | corrupt
	restart, maxIter int
	zeroRHS          bool
	calm             int // products before the operator overflows; -1 = it never does
}

func familyScenarios() []familyScenario {
	var out []familyScenario
	for _, p := range []int{1, 3} {
		for _, flip := range []float64{0, 1e-3, 2e-2} {
			for _, pre := range []string{"none", "fixed", "drift", "corrupt"} {
				for _, rm := range [][2]int{{30, 200}, {5, 37}, {8, 8}} {
					out = append(out, familyScenario{
						name: fmt.Sprintf("p%d/flip%g/%s/r%di%d", p, flip, pre, rm[0], rm[1]),
						p:    p, flip: flip, precon: pre, restart: rm[0], maxIter: rm[1], calm: -1,
					})
				}
			}
		}
		// Overflow from the first product leaves no finite residual
		// estimate at all; after three clean ones every later cycle is
		// abandoned at its first step, which runs DistFGMRES's
		// abandoned-cycle budget to its limit.
		for _, sp := range []struct {
			name string
			calm int
		}{{"zero-rhs", -1}, {"overflow", 0}, {"overflow-late", 3}} {
			out = append(out, familyScenario{
				name: fmt.Sprintf("p%d/%s", p, sp.name),
				p:    p, precon: "none", restart: 30, maxIter: 200, zeroRHS: sp.name == "zero-rhs", calm: sp.calm,
			})
		}
	}
	return out
}

// familyLine is one golden record.
type familyLine struct {
	Solver     string `json:"solver"`
	Scenario   string `json:"scenario"`
	Iterations int    `json:"iterations"`
	Restarts   int    `json:"restarts"`
	Converged  bool   `json:"converged"`
	Reductions int    `json:"reductions"`
	FNV        string `json:"fnv"` // every rank's solution, stats, clock, ledger and events
}

type fnvWriter struct{ h hash.Hash64 }

func (w fnvWriter) u64(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.h.Write(buf[:])
	}
}

// f64 hashes floats by bit pattern, every NaN as one value: which NaN an
// overflowed solve carries is the hardware's choice, not the solver's.
func (w fnvWriter) f64(vs ...float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			v = math.NaN()
		}
		w.u64(math.Float64bits(v))
	}
}

// runFamily solves sc with s and returns its golden record.
func runFamily(solver string, run familyRun, sc familyScenario) (familyLine, error) {
	type rankResult struct {
		x      []float64
		st     Stats
		clock  float64
		ledger comm.Stats
		events []obs.Event
	}
	res := make([]rankResult, sc.p)
	// The 11×11 grid splits unevenly over three ranks; the fault-rate
	// 1e-3 scenarios run the non-symmetric operator.
	a := problems.Poisson2D(11, 11)
	if sc.flip == 1e-3 {
		a = problems.ConvDiff2D(11, 11, 20, 10)
	}
	rhs, _ := problems.ManufacturedRHS(a)
	cfg := comm.Config{
		Ranks: sc.p, Cost: machine.DefaultCostModel(), Seed: 5, Noise: machine.UniformJitter{Frac: 0.25},
		Observer: func(ev obs.Event) { res[ev.Rank].events = append(res[ev.Rank].events, ev) },
	}
	err := comm.Run(cfg, func(c *comm.Comm) error {
		csr := dist.NewCSR(c, a)
		op := &familyOp{Operator: csr, rng: machine.NewRNG(1000 + uint64(c.Rank())), rate: sc.flip, calm: sc.calm}
		b := csr.Scatter(rhs)
		if sc.zeroRHS {
			clear(b)
		}
		var x0 []float64
		if sc.restart == 5 { // the short-cycle scenarios warm-start
			x0 = make([]float64, len(b))
			for i := range x0 {
				x0[i] = 0.1 * b[i]
			}
		}
		var m DistPreconditioner
		if sc.precon != "none" {
			dp := &diagPrecon{c: c, d: csr.Scatter(a.Diag()), rng: machine.NewRNG(2000 + uint64(c.Rank()))}
			if sc.precon != "fixed" {
				dp.drift = 0.01
			}
			if sc.precon == "corrupt" {
				dp.corrupt = 1e-2
			}
			m = dp
		}
		x, st, err := run(c, op, m, b, x0, sc.restart, sc.maxIter)
		res[c.Rank()].x, res[c.Rank()].st = x, st
		res[c.Rank()].clock, res[c.Rank()].ledger = c.Clock(), c.Stats()
		return err
	})
	if err != nil {
		return familyLine{}, err
	}
	w := fnvWriter{fnv.New64a()}
	for _, r := range res {
		w.f64(r.x...)
		w.f64(r.st.Residuals...)
		w.f64(r.st.FinalResidual, r.st.VirtualTime, r.clock, r.ledger.Flops, r.ledger.NoiseTime)
		conv := uint64(0)
		if r.st.Converged {
			conv = 1
		}
		w.u64(uint64(r.st.Iterations), uint64(r.st.Restarts), conv, uint64(r.st.Reductions), uint64(r.st.Anomalies),
			uint64(r.ledger.Sends), uint64(r.ledger.Recvs), uint64(r.ledger.Collective))
		for _, ev := range r.events {
			// DistCGSGMRES reported no iterations before it became an
			// instantiation of the engine; its record ignores them.
			if solver == "DistCGSGMRES" && ev.Name == obs.EventIteration {
				continue
			}
			w.h.Write([]byte(ev.Name + "\x00" + ev.Detail + "\x00"))
			w.u64(uint64(ev.Iter))
			w.f64(ev.T, ev.Value, ev.Dur, ev.Wait)
		}
	}
	st := res[0].st
	return familyLine{solver, sc.name, st.Iterations, st.Restarts, st.Converged, st.Reductions, fmt.Sprintf("%016x", w.h.Sum64())}, nil
}

// TestDistFamilyGolden runs every distributed entry point over the
// scenario table — world sizes, jitter, operator faults, preconditioner
// kinds, restart lengths, a zero right-hand side and an overflowing
// operator — and compares each record with the committed one.
func TestDistFamilyGolden(t *testing.T) {
	var got [][]byte
	n := 0
	for _, sc := range familyScenarios() {
		for _, s := range familySolvers {
			if sc.precon != "none" && !s.precon {
				continue
			}
			if n++; testing.Short() && n%3 != 0 {
				got = append(got, nil)
				continue
			}
			rec, err := runFamily(s.name, s.run, sc)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, sc.name, err)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, line)
		}
	}

	data, err := os.ReadFile(distFamilyGolden)
	if os.IsNotExist(err) && !testing.Short() {
		if err := os.MkdirAll(filepath.Dir(distFamilyGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(distFamilyGolden, append(bytes.Join(got, []byte("\n")), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this build; review and commit it", distFamilyGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(want) != len(got) {
		t.Fatalf("%s holds %d records, want %d", distFamilyGolden, len(want), len(got))
	}
	for i, line := range got {
		if line != nil && !bytes.Equal(line, want[i]) {
			t.Errorf("record differs from the committed one\n got %s\nwant %s", line, want[i])
		}
	}
}

// TestDistFamilyResultsSurviveNextSolve is the escape check for borrowed
// scratch: every entry point's working storage goes back to mem's pool
// when it returns, and the next solve on the same rank is handed it
// again. What a caller keeps — the solution and Stats.Residuals — must
// therefore own its storage: solving again, with other right-hand
// sides, may not move a bit of the first call's results.
func TestDistFamilyResultsSurviveNextSolve(t *testing.T) {
	a := problems.Poisson2D(11, 11)
	rhs, _ := problems.ManufacturedRHS(a)
	sameBits := func(got, want []float64) bool {
		return slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, s := range familySolvers {
		err := comm.Run(comm.Config{Ranks: 3, Cost: machine.DefaultCostModel(), Seed: 5}, func(c *comm.Comm) error {
			csr := dist.NewCSR(c, a)
			b := csr.Scatter(rhs)
			var m DistPreconditioner
			if s.precon {
				m = &diagPrecon{c: c, d: csr.Scatter(a.Diag()), rng: machine.NewRNG(1)}
			}
			x, st, err := s.run(c, csr, m, b, nil, 8, 40)
			if err != nil {
				return err
			}
			if len(st.Residuals) == 0 || cap(st.Residuals) != len(st.Residuals) {
				t.Errorf("%s rank %d: residual history len %d cap %d, want a non-empty right-sized copy",
					s.name, c.Rank(), len(st.Residuals), cap(st.Residuals))
			}
			keepX, keepRes := slices.Clone(x), slices.Clone(st.Residuals)
			for k := 1; k <= 3; k++ {
				b2 := make([]float64, len(b))
				for i := range b2 {
					b2[i] = float64(k+1) * b[len(b)-1-i]
				}
				if _, _, err := s.run(c, csr, m, b2, x, 8, 40); err != nil {
					return err
				}
				if !sameBits(x, keepX) || !sameBits(st.Residuals, keepRes) {
					t.Errorf("%s rank %d: solve %d after it changed the first solve's results", s.name, c.Rank(), k)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// TestTwoWorldsBorrowConcurrently runs two worlds on two goroutines,
// both borrowing from and returning to the one process-wide pool, and
// requires each to reproduce the record it produces alone — for the race
// detector, and against one world's scratch reaching the other.
func TestTwoWorldsBorrowConcurrently(t *testing.T) {
	scs := familyScenarios()
	type job struct {
		solver int
		sc     familyScenario
	}
	jobs := []job{{2, scs[3]}, {4, scs[0]}, {8, scs[4]}, {0, scs[40]}} // DistFGMRES, DistP1GMRES, DistPipelinedPCG, DistGMRES
	want := make([]familyLine, len(jobs))
	for i, j := range jobs {
		rec, err := runFamily(familySolvers[j.solver].name, familySolvers[j.solver].run, j.sc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rec
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (g + round) % len(jobs)
				j := jobs[i]
				got, err := runFamily(familySolvers[j.solver].name, familySolvers[j.solver].run, j.sc)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("concurrent %s %s\n got %+v\nwant %+v", got.Solver, got.Scenario, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
