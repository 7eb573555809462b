// Local Failure, Local Recovery (paper §II-C / §III-C): a distributed
// heat equation loses a rank mid-run. The LFLR runtime respawns it, the
// replacement restores its persisted state and replays its neighbours'
// logged halos, and the simulation finishes with a result bitwise equal
// to the fault-free run — no global restart, survivors keep their state.
//
//	go run ./examples/heat-lflr
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/lflr"
	"repro/internal/machine"
)

func main() {
	const ranks = 8
	cfg := lflr.HeatConfig{
		Nx: 48, Ny: 64, Nu: 0.25,
		Steps:        400,
		PersistEvery: 20,
	}
	world := func() *comm.World {
		return comm.NewWorld(comm.Config{Ranks: ranks, Cost: machine.DefaultCostModel(), Seed: 99})
	}

	clean, err := lflr.RunHeat(world(), lflr.NewStore(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg.Killer = &fault.StepKiller{Rank: 3, Step: 237}
	fmt.Printf("running %dx%d heat on %d ranks for %d steps; killing rank 3 at step 237...\n",
		cfg.Nx, cfg.Ny, ranks, cfg.Steps)
	res, err := lflr.RunHeat(world(), lflr.NewStore(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	exact := true
	for i := range res.U {
		if res.U[i] != clean.U[i] {
			exact = false
			break
		}
	}
	fmt.Printf("recoveries:                 %d\n", res.Recoveries)
	fmt.Printf("steps replayed locally:     %d (of %d total)\n", res.ReplaySteps, cfg.Steps)
	fmt.Printf("result bitwise == clean:    %v\n", exact)
	fmt.Printf("recovery cost (virtual):    %.3g s on top of %.3g s\n",
		res.FinalClock-clean.FinalClock, clean.FinalClock)
	if !exact || res.Recoveries != 1 {
		log.Fatal("LFLR demo failed")
	}
	fmt.Printf("one rank died; %d steps were recomputed on its replacement; nobody else rolled back\n", res.ReplaySteps)
}
