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
//	faultsim -sdc-bit 62 -guard -kill-rank -1
//
// Every run reads -ranks, -nx, -ny, -steps, -seed and -kill-rank, and
// -kill-step unless -kill-rank is -1. The explicit heat run (the
// default) also reads -persist and -guard, and -sdc-rank and -sdc-step
// when -sdc-bit asks for a flip. The implicit run (-implicit) reads
// -coarsen instead: it persists every step and has no energy guard, so
// a flip there would go unguarded. A flag set on the command line that
// the chosen run never reads is a usage error naming both flags, not a
// value ignored in silence.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/la"
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

// check rejects values the run would otherwise crash on or ignore in
// silence: a world needs a rank, a bit outside the word flips nothing,
// a victim outside the world or a step outside the run never fires, a
// persist or coarsening interval below 1 runs as if it were 1, a flip
// in implicit mode strikes a field no guard watches, and a flag set in
// fs that the chosen run never reads changes nothing.
func (o *options) check(fs *flag.FlagSet) error {
	switch {
	case o.ranks < 1:
		return fmt.Errorf("-ranks %d: want at least 1", o.ranks)
	case o.sdcBit < -1 || o.sdcBit > 63:
		return fmt.Errorf("-sdc-bit %d: want -1 (none) or an IEEE-754 bit 0..63", o.sdcBit)
	case o.killRank < -1 || o.killRank >= o.ranks:
		return fmt.Errorf("-kill-rank %d: want -1 (none) or a rank of the world, 0..%d", o.killRank, o.ranks-1)
	case o.killRank >= 0 && (o.killStep < 0 || o.killStep >= o.steps):
		return fmt.Errorf("-kill-step %d: the run has steps 0..%d", o.killStep, o.steps-1)
	case o.sdcBit >= 0 && (o.sdcRank < 0 || o.sdcRank >= o.ranks):
		return fmt.Errorf("-sdc-rank %d: the world has ranks 0..%d", o.sdcRank, o.ranks-1)
	case o.sdcBit >= 0 && (o.sdcStep < 0 || o.sdcStep >= o.steps):
		return fmt.Errorf("-sdc-step %d: the run has steps 0..%d", o.sdcStep, o.steps-1)
	case o.sdcBit >= 0 && o.implicit:
		return fmt.Errorf("-sdc-bit %d with -implicit: the implicit app has no energy guard (explicit mode only)", o.sdcBit)
	case o.persist < 1:
		return fmt.Errorf("-persist %d: want at least 1", o.persist)
	case o.coarsen < 1:
		return fmt.Errorf("-coarsen %d: want at least 1", o.coarsen)
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		var by string
		switch {
		case unread != nil:
		case (f.Name == "guard" || f.Name == "persist") && o.implicit:
			by = "with -implicit"
		case f.Name == "coarsen" && !o.implicit:
			by = "without -implicit"
		case (f.Name == "sdc-rank" || f.Name == "sdc-step") && o.sdcBit < 0:
			by = "without -sdc-bit"
		case f.Name == "kill-step" && o.killRank < 0:
			by = "with -kill-rank -1"
		}
		if by != "" {
			unread = fmt.Errorf("-%s %s %s: the run never reads it", f.Name, f.Value, by)
		}
	})
	return unread
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
	if err := o.check(fs); err != nil {
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

	world := comm.Config{Ranks: o.ranks, Cost: machine.DefaultCostModel(), Seed: o.seed}
	run := func(faults fault.Plan) (lflr.Result, error) {
		if o.implicit {
			return lflr.RunImplicitHeat(world, lflr.ImplicitConfig{
				Nx: o.nx, Ny: o.ny, Nu: 1.0, Steps: o.steps, Coarsen: o.coarsen, Faults: faults})
		}
		return lflr.RunHeat(world, lflr.HeatConfig{
			Nx: o.nx, Ny: o.ny, Nu: 0.25, Steps: o.steps, PersistEvery: o.persist, EnergyGuard: o.guard, Faults: faults})
	}
	clean, err := run(fault.Plan{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clean run:", err)
		os.Exit(1)
	}
	res, err := run(faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulty run:", err)
		os.Exit(1)
	}
	if o.implicit {
		fmt.Printf("implicit (BE) heat %dx%d, %d steps, coarsen %d\n", o.nx, o.ny, o.steps, o.coarsen)
		fmt.Printf("recoveries:     %d\n", res.Recoveries)
		fmt.Printf("replica floats: %d per rank\n", res.ReplicaFloats)
		fmt.Printf("max |u - u_clean| after recovery: %.3e\n", la.NrmInf(la.Sub(res.U, clean.U)))
		fmt.Printf("virtual time: %.6g s (fault-free %.6g s)\n", res.FinalClock, clean.FinalClock)
		return
	}
	fmt.Printf("explicit heat %dx%d, %d steps on %d ranks, persist every %d\n",
		o.nx, o.ny, o.steps, o.ranks, o.persist)
	if o.killRank >= 0 {
		fmt.Printf("kill: rank %d at step %d\n", o.killRank, o.killStep)
	}
	if o.sdcBit >= 0 {
		fmt.Printf("sdc: bit %d of rank %d's field at step %d (guard %v)\n", o.sdcBit, o.sdcRank, o.sdcStep, o.guard)
		fmt.Printf("sdc detections:        %d (rollback of %d steps)\n", res.SDCDetections, res.RollbackSteps)
	}
	fmt.Printf("recoveries:            %d\n", res.Recoveries)
	fmt.Printf("replayed steps:        %d\n", res.ReplaySteps)
	fmt.Printf("bitwise == fault-free: %v\n", slices.Equal(res.U, clean.U))
	fmt.Printf("final energy:          %.9g\n", res.Summary)
	fmt.Printf("virtual time:          %.6g s (fault-free %.6g s, recovery cost %.3g s)\n",
		res.FinalClock, clean.FinalClock, res.FinalClock-clean.FinalClock)
}
