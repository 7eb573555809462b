// Command faultsim runs the LFLR heat equation with a scripted process
// kill and prints the recovery trace: the concrete §II-C/§III-C scenario
// of the paper, end to end. Run `faultsim -h` for the full flag set —
// the help text is generated from the flags the program actually parses
// (and a test pins every usage snippet in this comment and the README
// against them).
//
// The three scenarios:
//
//	faultsim -ranks 8 -steps 400 -kill-rank 3 -kill-step 237 -persist 20
//	faultsim -implicit -coarsen 4
//	faultsim -sdc-bit 52 -guard
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/lflr"
	"repro/internal/machine"
)

// options carries every flag faultsim parses; newFlags is the single
// source of truth the help text and the usage-snippet test derive from.
type options struct {
	ranks    int
	nx, ny   int
	steps    int
	persist  int
	killRank int
	killStep int
	implicit bool
	coarsen  int
	sdcBit   int
	sdcRank  int
	sdcStep  int
	guard    bool
	seed     uint64
}

// newFlags builds the flag set. Keeping construction in one function is
// what lets main_test.go verify that every documented invocation parses.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.IntVar(&o.ranks, "ranks", 8, "number of simulated MPI ranks")
	fs.IntVar(&o.nx, "nx", 48, "grid width")
	fs.IntVar(&o.ny, "ny", 64, "grid height")
	fs.IntVar(&o.steps, "steps", 400, "time steps")
	fs.IntVar(&o.persist, "persist", 20, "persist state every k steps")
	fs.IntVar(&o.killRank, "kill-rank", 3, "rank to kill (-1 for none)")
	fs.IntVar(&o.killStep, "kill-step", 237, "step at which the rank dies")
	fs.BoolVar(&o.implicit, "implicit", false, "use the backward-Euler solver with coarse-replica recovery")
	fs.IntVar(&o.coarsen, "coarsen", 2, "implicit mode: replica coarsening factor")
	fs.IntVar(&o.sdcBit, "sdc-bit", -1, "silent-corruption mode: flip this bit of one field value (-1 for none)")
	fs.IntVar(&o.sdcRank, "sdc-rank", 2, "silent-corruption mode: victim rank")
	fs.IntVar(&o.sdcStep, "sdc-step", 200, "silent-corruption mode: step of the flip")
	fs.BoolVar(&o.guard, "guard", true, "arm the skeptical energy-conservation guard (explicit mode)")
	fs.Uint64Var(&o.seed, "seed", 1, "world seed")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: faultsim [flags]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the LFLR heat equation under a scripted process kill (default),\n")
		fmt.Fprintf(fs.Output(), "coarse-replica implicit recovery (-implicit), or a silent bit flip\n")
		fmt.Fprintf(fs.Output(), "caught by the energy guard (-sdc-bit).\n\n")
		fs.PrintDefaults()
	}
	return fs, o
}

// check rejects values the run would otherwise ignore in silence: a bit
// outside the word flips nothing, a victim outside the world never fires.
func (o *options) check() error {
	switch {
	case o.sdcBit < -1 || o.sdcBit > 63:
		return fmt.Errorf("-sdc-bit %d: want -1 (none) or an IEEE-754 bit 0..63", o.sdcBit)
	case o.killRank >= o.ranks:
		return fmt.Errorf("-kill-rank %d: the world has ranks 0..%d", o.killRank, o.ranks-1)
	case o.sdcBit >= 0 && (o.sdcRank < 0 || o.sdcRank >= o.ranks):
		return fmt.Errorf("-sdc-rank %d: the world has ranks 0..%d", o.sdcRank, o.ranks-1)
	}
	return nil
}

func main() {
	fs, o := newFlags()
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(2)
	}
	var faults fault.Plan
	if o.killRank >= 0 {
		faults.Entries = append(faults.Entries, fault.StepKill(o.killRank, o.killStep))
	}
	if o.sdcBit >= 0 {
		faults.Entries = append(faults.Entries, fault.StepFlip(o.sdcRank, o.sdcStep, 7, o.sdcBit))
	}

	// One path for both solvers over what their results share — the
	// field and the clock; each keeps its full result for its own lines.
	var heat lflr.HeatResult
	var impl lflr.ImplicitResult
	run := func(faults fault.Plan) (u []float64, clock float64, err error) {
		w := comm.NewWorld(comm.Config{Ranks: o.ranks, Cost: machine.DefaultCostModel(), Seed: o.seed})
		if o.implicit {
			impl, err = lflr.RunImplicitHeat(w, lflr.NewStore(), lflr.ImplicitConfig{
				Nx: o.nx, Ny: o.ny, Nu: 1.0, Steps: o.steps, Coarsen: o.coarsen, Faults: faults})
			return impl.U, impl.FinalClock, err
		}
		heat, err = lflr.RunHeat(w, lflr.NewStore(), lflr.HeatConfig{
			Nx: o.nx, Ny: o.ny, Nu: 0.25, Steps: o.steps, PersistEvery: o.persist, EnergyGuard: o.guard, Faults: faults})
		return heat.U, heat.FinalClock, err
	}
	cleanU, cleanClock, err := run(fault.Plan{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clean run:", err)
		os.Exit(1)
	}
	u, clock, err := run(faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulty run:", err)
		os.Exit(1)
	}
	exact, maxDiff := true, 0.0
	for i := range u {
		exact = exact && u[i] == cleanU[i]
		maxDiff = max(maxDiff, math.Abs(u[i]-cleanU[i]))
	}

	if o.implicit {
		fmt.Printf("implicit (BE) heat %dx%d, %d steps, coarsen %d\n", o.nx, o.ny, o.steps, o.coarsen)
		fmt.Printf("recoveries:     %d\n", impl.Recoveries)
		fmt.Printf("replica floats: %d per rank\n", impl.ReplicaFloats)
		fmt.Printf("max |u - u_clean| after recovery: %.3e\n", maxDiff)
		fmt.Printf("virtual time: %.6g s (fault-free %.6g s)\n", clock, cleanClock)
		return
	}
	fmt.Printf("explicit heat %dx%d, %d steps on %d ranks, persist every %d\n",
		o.nx, o.ny, o.steps, o.ranks, o.persist)
	if o.killRank >= 0 {
		fmt.Printf("kill: rank %d at step %d\n", o.killRank, o.killStep)
	}
	if o.sdcBit >= 0 {
		fmt.Printf("sdc: bit %d of rank %d's field at step %d (guard %v)\n", o.sdcBit, o.sdcRank, o.sdcStep, o.guard)
		fmt.Printf("sdc detections:        %d (rollback of %d steps)\n", heat.SDCDetections, heat.RollbackSteps)
	}
	fmt.Printf("recoveries:            %d\n", heat.Recoveries)
	fmt.Printf("replayed steps:        %d\n", heat.ReplaySteps)
	fmt.Printf("bitwise == fault-free: %v\n", exact)
	fmt.Printf("final energy:          %.9g\n", heat.Energy)
	fmt.Printf("virtual time:          %.6g s (fault-free %.6g s, recovery cost %.3g s)\n",
		clock, cleanClock, clock-cleanClock)
}
