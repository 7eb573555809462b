package lflr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/la"
)

// app is what one LFLR application declares about one rank; the loop,
// the agreement, persistence, log shipping, replay, the guard's rollback
// and the closing gather exist once, below. It is not an option: RunHeat,
// RunAdvection and RunImplicitHeat each construct exactly one kind.
type app struct {
	key    string // store key of the replica
	lost   string // what a replacement that finds no replica reports missing
	logged string // what a sender whose log is short reports missing

	// The halos this rank sends and reads every step, in exchange order.
	// They also say who assists whom: a halo's sender ships its log to a
	// recovering reader.
	out []outHalo
	in  []inHalo

	// initial samples the initial condition on this rank's strip.
	initial func() []float64
	// step advances r by one update, ending in the step-boundary
	// reduction, and returns the reduced value the invariant watches.
	step func(r *rank) (float64, error)
	// update is the stencil sweep alone, from u into v, with its flop
	// charge: what a replacement replays from its neighbours' logged
	// halos. Without it an app can only recover a replacement that is
	// already at the agreed step.
	update func(c *comm.Comm, u, v []float64, halos [2][]float64)
	// replica is what persist stores for u, and rebuild its inverse; nil
	// means the field itself.
	replica func(u []float64) []float64
	rebuild func(saved []float64) ([]float64, error)

	// violated is the skeptical invariant, nil when no guard is armed. Its
	// reference is the previous accepted step's value if perStep, else a
	// baseline taken at the first step after init, rollback or recovery.
	violated func(ref, cur float64) bool
	perStep  bool

	summary func(u []float64) float64 // rank-local part of the reported scalar; nil: none
}

// spec is the part of an app's Config the skeleton reads.
type spec struct {
	steps, persistEvery int
	faults              fault.Plan
	cells               int    // what the ranks partition…
	unit                string // …and its name: "grid rows", "cells"
	nx                  int    // row width; 1 for a 1D app
}

// outHalo is a boundary slice u[lo:hi] sent to one neighbour every step
// under tag and logged on the sender's side; inHalo is a neighbour's
// boundary received every step under tag into the stencil's halo slot.
// When the reader is respawned, the sender ships it the log under
// tag+tagRecover.
type outHalo struct {
	to, tag, lo, hi int
	log             haloLog
}

type inHalo struct{ from, tag, slot int }

const tagRecover = 1100

// haloLog is a sender-side message log: step → the halo sent at that step.
type haloLog map[int][]float64

// bundle packages the halos of steps [first, target) for a recovering
// neighbour. Layout: [firstStep, count, halos...].
func (l haloLog) bundle(what string, rank, first, target int) ([]float64, error) {
	payload := []float64{float64(first), float64(target - first)}
	for s := first; s < target; s++ {
		halo, ok := l[s]
		if !ok {
			return nil, fmt.Errorf("lflr: rank %d missing %s for step %d", rank, what, s)
		}
		payload = append(payload, halo...)
	}
	return payload, nil
}

// Result is what one run reports: what rank 0 holds after the closing
// gather.
type Result struct {
	U           []float64 // final global field (rank-order concatenation)
	Summary     float64   // energy Σu² (heat) or mass Σu (advection); 0 for implicit heat
	FinalClock  float64   // max virtual time over ranks
	Recoveries  int
	ReplaySteps int // recomputed steps during recoveries (failed rank only)

	SDCDetections int // guard firings
	RollbackSteps int // steps re-executed after SDC rollbacks

	// Implicit heat only, read from rank 0's latest incarnation.
	CGIters       []int // per-step global CG iteration counts
	ReplicaFloats int   // per-rank replica size actually persisted
}

// rank is the per-rank state every app shares.
type rank struct {
	ctx *rankCtx
	spec
	app
	faults *fault.Injector

	u, uPrev []float64
	updates  int // number of updates applied to u ("state version")

	replaySteps int

	// Skeptical state: the invariant's reference value (identical on
	// every rank, so rollback decisions need no extra agreement round),
	// and SDC accounting.
	ref           float64
	refValid      bool
	sdcDetections int
	rollbackSteps int
}

// run opens a world from cfg with a fresh store and executes one app
// over it; bind builds the app for one rank, and again for every
// replacement.
func run(cfg comm.Config, sp spec, bind func(*comm.Comm) app) (Result, error) {
	if cfg.Ranks < 1 {
		return Result{}, fmt.Errorf("lflr: %d ranks, want at least 1", cfg.Ranks)
	}
	world := comm.NewWorld(cfg)
	sp.persistEvery = max(sp.persistEvery, 1)
	switch {
	case world.Size() > sp.cells:
		// The recovery protocol identifies neighbours by rank adjacency,
		// which requires every rank to own at least one grid row or cell.
		return Result{}, fmt.Errorf("lflr: %d ranks exceed %d %s", world.Size(), sp.cells, sp.unit)
	case sp.nx < 1:
		return Result{}, fmt.Errorf("lflr: grid width %d, want at least 1", sp.nx)
	case sp.steps < 0:
		return Result{}, fmt.Errorf("lflr: %d steps, want at least 0", sp.steps)
	}
	// The plan's steps are time steps and its vectors the ranks' fields;
	// its run is shared by a victim and its replacements, so a fired
	// fault stays fired.
	pt := dist.Partition{N: sp.cells, P: world.Size()}
	faults, err := fault.NewRun(sp.faults, world.Size(), func(q int) int { return pt.Len(q) * sp.nx })
	if err != nil {
		return Result{}, err
	}
	resCh := make(chan Result, 1)

	rt := &supervisor{world: world, store: newStore()}
	recoveries, err := rt.execute(func(ctx *rankCtx) error {
		c := ctx.comm
		r := &rank{ctx: ctx, spec: sp, app: bind(c), faults: faults.Rank(c)}

		if ctx.recovering {
			if err := r.restore(); err != nil {
				return err
			}
			if err := r.recover(); err != nil {
				return err
			}
			// From here on this rank is an ordinary survivor.
			ctx.recovering = false
		} else {
			r.u = r.initial()
			r.uPrev = make([]float64, len(r.u))
		}

		if err := r.mainLoop(); err != nil {
			return err
		}

		// Gather the global field for verification.
		res := Result{SDCDetections: r.sdcDetections, RollbackSteps: r.rollbackSteps}
		var err error
		if res.U, err = c.Allgather(r.u); err != nil {
			return err
		}
		if r.summary != nil {
			if res.Summary, err = c.AllreduceScalar(r.summary(r.u), comm.OpSum); err != nil {
				return err
			}
		}
		if res.FinalClock, err = c.AllreduceScalar(c.Clock(), comm.OpMax); err != nil {
			return err
		}
		if r.update != nil {
			// Replay happens on recovered ranks; aggregate so rank 0 reports it.
			replayed, err := c.AllreduceScalar(float64(r.replaySteps), comm.OpSum)
			if err != nil {
				return err
			}
			res.ReplaySteps = int(replayed)
		}
		if c.Rank() == 0 {
			resCh <- res
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := <-resCh
	res.Recoveries = recoveries
	return res, nil
}

// mainLoop advances to the configured number of updates, handling
// failure events.
func (r *rank) mainLoop() error {
	for r.updates < r.steps {
		err := r.doStep()
		switch {
		case err == nil:
			continue
		case errors.Is(err, comm.ErrRankFailed):
			r.ctx.awaitRepair()
			if err := r.recover(); err != nil {
				return err
			}
		default:
			return err // includes ErrKilled on this rank
		}
	}
	return nil
}

// doStep executes one time step — the plan's fault.SiteStep occurrence
// s: its kills, persistence, its flips into the field, the app's step,
// and the skeptical check of what it reduced.
func (r *rank) doStep() error {
	s := r.updates

	// An app that cannot replay persists *before* the kill check, so the
	// replica matches the survivors' pre-step state exactly and the
	// recovery error isolates what the replica lost.
	if s%r.persistEvery == 0 && r.update == nil {
		r.persist(s)
	}
	if err := r.faults.Enter(fault.SiteStep, s); err != nil {
		return err
	}
	if s%r.persistEvery == 0 && r.update != nil {
		r.persist(s)
	}
	// Silent data corruption strikes the field.
	r.faults.Corrupt(fault.SiteStep, r.u)

	val, err := r.app.step(r)
	if err != nil || r.violated == nil {
		return err
	}
	if r.refValid && r.violated(r.ref, val) {
		// Corruption detected somewhere in the world. Every rank holds
		// the identical (reduced) value, so all take the same branch:
		// restore the last persisted state locally and re-execute.
		r.sdcDetections++
		before := r.updates
		if err := r.restore(); err != nil {
			return err
		}
		r.rollbackSteps += before - r.updates
		r.refValid = false
		return nil
	}
	if r.perStep || !r.refValid {
		r.ref, r.refValid = val, true
	}
	return nil
}

// haloStep sends this rank's boundary halos, recording each in its
// sender-side log under the step, receives the neighbours', and updates.
func (r *rank) haloStep() error {
	c := r.ctx.comm
	var halos [2][]float64
	for _, o := range r.out {
		halo := la.Copy(r.u[o.lo:o.hi])
		o.log[r.updates] = halo
		if err := c.Send(o.to, o.tag, halo); err != nil {
			return err
		}
	}
	for _, in := range r.in {
		var err error
		if halos[in.slot], err = c.Recv(in.from, in.tag); err != nil {
			return err
		}
	}
	r.apply(halos)
	return nil
}

// apply performs one update with the app's exact arithmetic, in a live
// step or a replayed one. uPrev is the write buffer; it then holds the
// previous state, which is what lets a survivor roll back one step.
func (r *rank) apply(halos [2][]float64) {
	u, v := r.u, r.uPrev
	r.update(r.ctx.comm, u, v, halos)
	r.u, r.uPrev = v, u
	r.updates++
}

// persist writes the current state's replica to the LFLR store and
// truncates the message logs. One extra persist window is retained: a
// rank can die *before* persisting step s while its neighbours persist
// *at* s, in which case the replacement restores step s−k and needs logs
// back to it.
func (r *rank) persist(step int) {
	c := r.ctx.comm
	data := r.u
	if r.replica != nil {
		data = r.replica(r.u)
	}
	r.ctx.store.save(c, r.key, data)
	r.ctx.store.saveScalar(c, "step", float64(step))
	for _, o := range r.out {
		for s := range o.log {
			if s < step-r.persistEvery {
				delete(o.log, s)
			}
		}
	}
}

// restore re-initialises this rank from its persistent data: the paper's
// recovery-function contract for a respawned rank, and the valid state a
// guard violation rolls back to.
func (r *rank) restore() error {
	c := r.ctx.comm
	u, ok := r.ctx.store.restore(c, r.key)
	if !ok {
		return fmt.Errorf("lflr: rank %d has no %s", c.Rank(), r.lost)
	}
	sv, _ := r.ctx.store.restoreScalar(c, "step")
	if r.rebuild != nil {
		var err error
		if u, err = r.rebuild(u); err != nil {
			return err
		}
	}
	r.u, r.uPrev, r.updates = u, make([]float64, len(u)), int(sv)
	return nil
}

// recover is the post-repair consensus every rank (survivor or
// replacement) runs:
//
//  1. all-gather (updates, recovering) pairs;
//  2. target = min updates over survivors — survivors one step ahead roll
//     back via uPrev (they kept the previous state for exactly this);
//  3. the senders of each recovering rank's halos ship their logs for the
//     steps the replacement must replay;
//  4. the replacement replays locally up to target.
//
// Afterwards every rank holds the state of step `target` and the main
// loop resumes; the redone collective ordering is identical on all ranks.
func (r *rank) recover() error {
	c := r.ctx.comm
	rec := 0.0
	if r.ctx.recovering {
		rec = 1
	}
	info, err := c.Allgather([]float64{float64(r.updates), rec})
	if err != nil {
		return err
	}
	target := math.MaxInt32
	restored := make(map[int]int) // recovering rank -> its restored step
	for q := 0; q < c.Size(); q++ {
		up := int(info[2*q])
		if info[2*q+1] == 1 {
			restored[q] = up
		} else if up < target {
			target = up
		}
	}
	if len(restored) == 0 {
		return nil // spurious wakeup; nothing to do
	}
	if len(restored) == c.Size() {
		return fmt.Errorf("lflr: rank %d recovers with no survivor to agree a target step with", c.Rank())
	}
	if !r.perStep {
		r.refValid = false // the replacement never saw the baseline: all re-take it
	}

	if !r.ctx.recovering {
		// Survivors ahead of the consensus roll back one step.
		if r.updates > target {
			r.u, r.uPrev = r.uPrev, r.u
			r.updates--
			if r.updates != target {
				return fmt.Errorf("lflr: rank %d cannot roll back from %d to %d", c.Rank(), r.updates+1, target)
			}
		}
		// Assist: ship halo logs to recovering readers, starting from the
		// step each replacement actually restored.
		for _, o := range r.out {
			first, ok := restored[o.to]
			if !ok {
				continue
			}
			payload, err := o.log.bundle(r.logged, c.Rank(), first, target)
			if err != nil {
				return err
			}
			if err := c.Send(o.to, o.tag+tagRecover, payload); err != nil {
				return err
			}
		}
		return nil
	}

	// Replay: the replacement recomputes from its persisted step to the
	// consensus step using the neighbours' logged halos.
	if r.update == nil && r.updates != target {
		// The replica always corresponds to the pre-step state of the
		// kill step, which is the consensus target by construction.
		return fmt.Errorf("lflr: %s step %d does not match target %d", r.lost, r.updates, target)
	}
	var logs [2][]float64 // per halo slot, the bundled halos back to back
	for _, in := range r.in {
		msg, err := c.Recv(in.from, in.tag+tagRecover)
		if err != nil {
			return err
		}
		if first := int(msg[0]); r.updates != first {
			return fmt.Errorf("lflr: restored step %d does not match log start %d", r.updates, first)
		}
		logs[in.slot] = msg[2:]
	}
	for k, n := 0, target-r.updates; k < n; k++ {
		var halos [2][]float64
		for slot, l := range logs {
			halos[slot] = l[k*len(l)/n : (k+1)*len(l)/n] // nil where the stencil has no neighbour
		}
		r.apply(halos)
		r.replaySteps++
	}
	return nil
}
