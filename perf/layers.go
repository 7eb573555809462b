package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/precond"
	"repro/internal/service"
	"repro/internal/traceq"
)

// kernelMetrics maps bench.Kernels() names onto registry names and
// the unit's scale: the kernel bodies are the repo's, only the timing
// loop is perf's (ROADMAP: no second harness).
var kernelMetrics = map[string]struct {
	metric string
	nsPer  float64 // ns per reported unit: 1e3 reports us, 1 reports ns
	allocs string  // registry name of the allocs/op twin, if gated
}{
	"kernel/spmv-poisson2d-256":         {"la.spmv_us", 1e3, ""},
	"kernel/dot-65536":                  {"la.dot_us", 1e3, ""},
	"kernel/bitflip-pass-4096":          {"fault.bitflip_pass_us", 1e3, ""},
	"kernel/skp-check-suite":            {"skp.check_suite_us", 1e3, ""},
	"kernel/skp-checked-apply":          {"skp.checked_apply_us", 1e3, ""},
	"kernel/gmres-serial-iter":          {"krylov.gmres_iter_us", 1e3, ""},
	"kernel/dist-csr-apply-p4":          {"dist.csr_apply_us_p4", 1e3, ""},
	"kernel/dist-gmres-iter-p4":         {"krylov.dist_gmres_iter_us_p4", 1e3, ""},
	"kernel/comm-allreduce-p8":          {"comm.allreduce_us_p8", 1e3, ""},
	"kernel/comm-allreduce-p64":         {"comm.allreduce_us_p64", 1e3, ""},
	"kernel/precond-bjacobi-apply-p4":   {"precond.bjacobi_apply_us_p4", 1e3, ""},
	"kernel/precond-chebyshev-apply-p4": {"precond.chebyshev_apply_us_p4", 1e3, ""},
	"kernel/obs-disabled-telemetry":     {"obs.disabled_event_ns", 1, "obs.disabled_event_allocs"},
	"kernel/obs-disabled-span":          {"obs.disabled_span_ns", 1, "obs.disabled_span_allocs"},
	"kernel/comm-disabled-span-p4":      {"obs.comm_disabled_span_ns_p4", 1, "obs.comm_disabled_span_allocs_p4"},
	"kernel/obs-enabled-metrics":        {"obs.enabled_metric_ns", 1, ""},
}

// probeKernels times every registered kernel: grow n until one call
// meets target, report ns/op of that call. The gated kernels also get
// benchdiff's allocation pass (MemStats delta over a fixed 4096 ops).
func probeKernels(target time.Duration, got map[string]float64) error {
	for _, k := range bench.Kernels() {
		m, ok := kernelMetrics[k.Name]
		if !ok {
			return fmt.Errorf("perf: kernel %s has no per-layer metric; add it to the registry", k.Name)
		}
		body, done := k.Setup()
		body(1)
		n, dt := 1, time.Duration(0)
		for {
			t := time.Now()
			body(n)
			if dt = time.Since(t); dt >= target || n >= 1<<30 {
				break
			}
			n = max(2*n, int(1.2*float64(target)/float64(dt+1)*float64(n)))
		}
		got[m.metric] = float64(dt.Nanoseconds()) / float64(n) / m.nsPer
		if m.allocs != "" {
			const an = 4096
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			body(an)
			runtime.ReadMemStats(&m1)
			got[m.allocs] = float64(m1.Mallocs-m0.Mallocs) / an
		}
		done()
	}
	return nil
}

// timeCall returns the median wall of n calls of fn, in seconds.
func timeCall(n int, fn func() error) (float64, error) {
	walls := make([]float64, n)
	for i := range walls {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls[i] = time.Since(t).Seconds()
	}
	return median(walls), nil
}

// probeCalls times public functions of comm, problems and precond
// directly. reps scales every repeat count (1 in tests).
func probeCalls(reps int, got map[string]float64) error {
	for _, p := range []int{4, 64} {
		cfg := comm.Config{Ranks: p, Cost: machine.DefaultCostModel()}
		s, err := timeCall(20*reps, func() error { return comm.Run(cfg, func(*comm.Comm) error { return nil }) })
		if err != nil {
			return err
		}
		got[fmt.Sprintf("comm.spawn_us_p%d", p)] = s * 1e6
	}
	for _, g := range []int{12, 96} {
		s, err := timeCall(5*reps, func() error {
			_, err := campaign.BuildProblem(campaign.ProblemPoisson, g)
			return err
		})
		if err != nil {
			return err
		}
		got[fmt.Sprintf("problems.assemble_ms_g%d", g)] = s * 1e3
	}
	p96, err := campaign.BuildProblem(campaign.ProblemPoisson, 96)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < 3*reps; i++ {
		err := comm.Run(comm.Config{Ranks: 2, Cost: machine.DefaultCostModel()}, func(c *comm.Comm) error {
			m := precond.NewBlockJacobiILU(c, p96.A)
			t := time.Now()
			err := m.Setup()
			if c.Rank() == 0 {
				setups = append(setups, time.Since(t).Seconds())
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	got["precond.setup_ms_g96"] = median(setups) * 1e3
	return nil
}

// probeCampaign runs one traced perf-driven quick pass for the
// campaign stage numbers, then campaign.Run on one shard with a trace
// directory against the same shard without, for obs and traceq.
func probeCampaign(sw *sweep, got map[string]float64) error {
	tr := newTracer(true)
	ps, err := sw.pass(tr)
	if err != nil {
		return err
	}
	if ps.failed != 0 {
		return fmt.Errorf("perf: traced quick pass failed %d of %d ops", ps.failed, ps.ops)
	}
	self := tr.selfTimes()
	total := 0.0
	for _, v := range self {
		total += v
	}
	got["campaign.expand_ms"] = sum(tr.durations("campaign.expand")) * 1e3
	got["campaign.read_ms"] = sum(tr.durations("campaign.read")) * 1e3
	got["campaign.aggregate_ms"] = sum(tr.durations("campaign.aggregate")) * 1e3
	got["campaign.report_ms"] = sum(tr.durations("campaign.report")) * 1e3
	got["campaign.record_write_us"] = median(tr.durations("campaign.record_write")) * 1e6
	got["campaign.execute_share"] = (self["campaign.execute"] + self["problems.assemble"]) / total
	got["campaign.bytes_per_record"] = float64(sw.lastBytes) / float64(ps.ops)

	// Tracing's cost is per run, so a quarter of the grid (shard 0/4,
	// 234 runs) shows it as well as the whole would.
	tdir, err := os.MkdirTemp(sw.dir, "traces-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tdir)
	shard := campaign.Options{Spec: sw.spec, Shards: 4, Workers: nproc(), Out: filepath.Join(sw.dir, "shard.jsonl")}
	walls := [2]float64{}
	for i, dir := range []string{"", tdir} {
		shard.TraceDir = dir
		t := time.Now()
		if _, err := campaign.Run(shard); err != nil {
			return err
		}
		walls[i] = time.Since(t).Seconds()
	}
	got["obs.trace_overhead_share"] = walls[1]/walls[0] - 1
	t := time.Now()
	an, err := traceq.LoadDir(tdir)
	if err != nil {
		return err
	}
	if rep := traceq.BuildReport(an); len(rep.Markdown) == 0 {
		return fmt.Errorf("perf: traceq rendered an empty report")
	}
	got["traceq.render_ms"] = time.Since(t).Seconds() * 1e3
	return nil
}

// probeService runs one traced round for the client-side request
// classes and the server's own /metrics and /stats, uses the live
// server for the HTTP floor and the scrape cost, and the journal
// directory the round leaves behind for resume.
func probeService(sv *serve, reps int, got map[string]float64) error {
	var probeErr error
	sv.live = func(base string, hc *http.Client) {
		get := func(path string) func() error {
			return func() error {
				resp, err := hc.Get(base + path)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				_, err = io.Copy(io.Discard, resp.Body)
				return err
			}
		}
		var s float64
		if s, probeErr = timeCall(100*reps, get("/healthz")); probeErr != nil {
			return
		}
		got["service.healthz_rtt_us"] = s * 1e6
		if s, probeErr = timeCall(20*reps, get("/metrics")); probeErr != nil {
			return
		}
		got["obs.metrics_scrape_us"] = s * 1e6
	}
	sv.closed = func(jdir string) {
		if probeErr != nil {
			return
		}
		var s float64
		s, probeErr = timeCall(3*reps, func() error {
			srv, err := service.New(service.Options{Workers: nproc(), JournalDir: jdir})
			if err != nil {
				return err
			}
			if st := srv.Stats(); st.Journal == nil || st.Journal.Records != int64(len(sv.refRuns)) {
				err = fmt.Errorf("perf: resumed server holds %+v, want %d records", st.Journal, len(sv.refRuns))
			}
			srv.Close()
			return err
		})
		got["journal.resume_ms"] = s * 1e3
	}
	defer func() { sv.live, sv.closed = nil, nil }()

	tr := newTracer(true)
	ps, err := sv.pass(tr)
	if err != nil {
		return err
	}
	if probeErr != nil {
		return probeErr
	}
	if ps.failed != 0 {
		return fmt.Errorf("perf: traced serve round failed %d of %d ops", ps.failed, ps.ops)
	}
	rtt := 0.0
	for class, metric := range map[string]struct {
		name  string
		scale float64
	}{"hit": {"service.hit_rtt_us", 1e6}, "exec": {"service.exec_rtt_ms", 1e3}, "sse": {"service.sse_rtt_ms", 1e3}} {
		d := tr.durations("service.rtt." + class)
		got[metric.name] = median(d) * metric.scale
		rtt += sum(d)
	}
	got["service.encode_us"] = median(tr.durations("service.encode")) * 1e6
	got["service.decode_us"] = median(tr.durations("service.decode")) * 1e6

	m, st := sv.last.metrics, sv.last.stats
	perRun := func(series string) float64 {
		if m[series+"_count"] == 0 {
			return 0
		}
		return m[series+"_sum"] / m[series+"_count"] * 1e3
	}
	got["service.queue_wait_ms"] = perRun("repro_run_queue_wait_seconds")
	got["service.execute_ms"] = perRun("repro_run_execute_seconds")
	got["service.http_overhead_share"] = 1 - m["repro_run_execute_seconds_sum"]/rtt
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	got["service.setup_hit_ratio"] = ratio(st.Cache.SetupHits, st.Cache.SetupMisses)
	got["service.problem_hit_ratio"] = ratio(st.Cache.ProblemHits, st.Cache.ProblemMisses)
	got["service.rejected"] = float64(st.Rejected)
	return nil
}

// probeJournal times the journal's public pieces on the 936 reference
// records: sink appends with and without the fsync barrier, and one
// snapshot.
func probeJournal(refs []refRun, dir string, got map[string]float64) error {
	lines := make([][]byte, len(refs))
	snap := &service.Snapshot{Schema: service.SnapshotSchema, Records: make(map[string]campaign.Record, len(refs))}
	bytes := 0
	for i, r := range refs {
		rec := r.rec
		lines[i] = append(mustJSON(service.JournalEntry{Schema: service.JournalSchema, Kind: "run", ID: rec.Key, Req: rec.Key, Record: &rec}), '\n')
		bytes += len(lines[i])
		snap.Records[rec.Key] = rec
	}
	got["journal.bytes_per_run"] = float64(bytes) / float64(len(refs))

	for _, mode := range []struct {
		metric string
		fsync  bool
		n      int
	}{{"journal.append_us", false, len(lines)}, {"journal.append_fsync_us", true, 32}} {
		jdir, err := os.MkdirTemp(dir, "append-*")
		if err != nil {
			return err
		}
		sink, err := service.OpenJournal(jdir, mode.fsync)
		if err != nil {
			return err
		}
		i := 0
		s, err := timeCall(min(mode.n, len(lines)), func() error {
			i++
			return sink.Append(lines[i-1])
		})
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(jdir)
		if err != nil {
			return err
		}
		got[mode.metric] = s * 1e6
	}

	sdir, err := os.MkdirTemp(dir, "snapshot-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	s, err := timeCall(3, func() error { return service.WriteSnapshot(sdir, snap) })
	got["journal.snapshot_ms"] = s * 1e3
	return err
}

// countMetrics are the simulator's own statistics over the workload's
// identities. They repeat exactly, so two commits compare exactly.
func countMetrics(refs []refRun, got map[string]float64) {
	var colls, msgs, flops, vtime, iters, discards float64
	ledgered := 0
	for _, r := range refs {
		vtime += r.rec.VTime
		iters += float64(r.rec.Iters)
		discards += float64(r.rec.Discards)
		// A rank-kill run's ledger depends on when survivors see the
		// failure (comm.Die); its record does not.
		if r.cell.Fault.Model == campaign.FaultRankKill {
			continue
		}
		ledgered++
		colls += float64(r.ledger.Stats.Collective) / float64(r.ledger.Ranks)
		msgs += float64(r.ledger.Stats.Sends)
		flops += r.ledger.Stats.Flops
	}
	n := float64(len(refs))
	got["comm.colls_per_run"] = colls / float64(ledgered)
	got["comm.msgs_per_run"] = msgs / float64(ledgered)
	got["comm.flops_per_run"] = flops / float64(ledgered)
	got["comm.vtime_s_per_run"] = vtime / n
	got["krylov.iters_per_run"] = iters / n
	got["srp.discards_per_run"] = discards / n
}

// runTraced is the -trace 1 run: the layer probes, then the selected
// workload on its traced path, all on the workload's P count so the
// rows of one run describe one machine. It returns the recorded spans.
func runTraced(name string, seed uint64, seconds int) (*result, *tracer, error) {
	def, _ := findWorkload(name)
	defer pinProcs(def.Procs)()
	inst, err := setUp(name, seed)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	got := make(map[string]float64)
	if err := layerProbes(inst, seed, seconds, got); err != nil {
		return nil, nil, err
	}
	res, spans, err := tracedWorkload(inst, seconds, got)
	if err != nil {
		return nil, nil, err
	}
	return res, spans, res.finish(layerMetrics, got)
}

// layerProbes measures the rows that do not depend on the selected
// workload: kernels, direct calls, one traced quick pass, one traced
// serve round. A short run (tests) takes fewer samples of each.
func layerProbes(inst instance, seed uint64, seconds int, got map[string]float64) error {
	reps := max(1, min(seconds, 5))
	target := time.Duration(max(1, min(seconds, 50))) * time.Millisecond

	// The quick-spec probes reuse the selected workload's instance when
	// it is the one they need.
	var err error
	sw, _ := inst.(*sweep)
	if sw == nil {
		if sw, err = newSweep(seed); err != nil {
			return err
		}
		defer sw.close()
	}
	sv, _ := inst.(*serve)
	if sv == nil {
		if sv, err = newServe(seed); err != nil {
			return err
		}
		defer sv.close()
	}
	if err := probeKernels(target, got); err != nil {
		return err
	}
	if err := probeCalls(reps, got); err != nil {
		return err
	}
	if err := probeCampaign(sw, got); err != nil {
		return err
	}
	if err := probeService(sv, reps, got); err != nil {
		return err
	}
	return probeJournal(sv.refs(), sv.dir, got)
}

// tracedWorkload runs the selected workload on its traced code path,
// alternating recorder on and off for max(1, seconds/4) pairs, with a
// replica solve and its ExecuteRunEnv twin beside each pair, and fills
// in the count, replica and host rows. It reads the allreduce kernel
// rows layerProbes measured.
func tracedWorkload(inst instance, seconds int, got map[string]float64) (*result, *tracer, error) {
	pairs := max(1, seconds/4)
	replicaReps := max(1, min(seconds, 8))
	countMetrics(inst.refs(), got)

	res := &result{inputsFNV: inputsFNV(inst.inputKeys())}
	on, off := newTracer(true), newTracer(false)
	spec, cell := inst.replicaCell()
	var want *refRun
	for i, r := range inst.refs() {
		if r.cell.Key() == cell.Key() && r.rep == 0 {
			want = &inst.refs()[i]
		}
	}
	if want == nil {
		return nil, nil, fmt.Errorf("perf: no reference for the replica cell %s", cell.Key())
	}
	var (
		tracedWall, plainWall           float64
		rates                           []float64
		replicaOn, replicaOff, execWall []float64
		ops                             int
		host                            hostSample
	)
	for i := 0; i < pairs; i++ {
		ps, err := inst.pass(on)
		if err != nil {
			return nil, nil, err
		}
		res.add(ps)
		tracedWall += ps.wall.Seconds()

		h0 := readHost()
		ps, err = inst.pass(off)
		if err != nil {
			return nil, nil, err
		}
		host = host.plus(readHost().minus(h0))
		res.add(ps)
		plainWall += ps.wall.Seconds()
		ops += ps.ops
		rates = append(rates, float64(ps.ops)/ps.wall.Seconds())

		// One run's wall is a noisy sample of a few ms, so the replica
		// and its ExecuteRunEnv twin alternate several times per pair and
		// are compared on medians.
		for j := 0; j < replicaReps; j++ {
			for _, tr := range []*tracer{on, off} {
				rr, err := runReplica(tr, i*replicaReps+j+1, spec, cell)
				if err != nil {
					return nil, nil, err
				}
				res.Attempted++
				if rr.iters != want.rec.Iters || rr.converged != want.rec.Converged {
					res.Failed++
				}
				if tr.on {
					replicaOn = append(replicaOn, rr.wall.Seconds())
				} else {
					replicaOff = append(replicaOff, rr.wall.Seconds())
				}
			}
			t := time.Now()
			campaign.ExecuteRunEnv(spec, cell, 0, nil)
			execWall = append(execWall, time.Since(t).Seconds())
		}
	}

	got["host.mallocs_per_op"] = host.mallocs / float64(ops)
	got["host.alloc_kb_per_op"] = host.allocBytes / 1024 / float64(ops)
	got["host.gc_cpu_share"] = host.gcCPU / host.totalCPU
	got["host.cpu_s_per_wall_s"] = host.rusageCPU / plainWall
	got["bench.segment_spread"] = (slices.Max(rates) - slices.Min(rates)) / median(rates)
	got["bench.span_overhead_share"] = (tracedWall+sum(replicaOn))/(plainWall+sum(replicaOff)) - 1
	got["bench.replica_wall_ratio"] = median(replicaOff) / median(execWall)
	got["campaign.bookkeeping_share"] = 1 - median(replicaOff)/median(execWall)

	// The replica's layer budget: self times on rank 0 over its wall.
	self := on.selfTimes()
	for span, metric := range map[string]string{
		"problems.assemble": "problems.assemble_share", "comm.world": "comm.world_share",
		"dist.build": "dist.build_share", "dist.apply": "dist.apply_share", "krylov.solve": "krylov.self_share",
		"precond.setup": "precond.setup_share", "precond.apply": "precond.apply_share",
	} {
		got[metric] = self[replicaSpan+span] / sum(replicaOn)
	}

	allreduce := got["comm.allreduce_us_p8"]
	if cell.Ranks >= 32 {
		allreduce = got["comm.allreduce_us_p64"]
	}
	replicaColls := float64(want.ledger.Stats.Collective) / float64(want.ledger.Ranks)
	got["comm.est_sync_share"] = replicaColls * allreduce * 1e-6 / median(execWall)
	return res, on, nil
}
