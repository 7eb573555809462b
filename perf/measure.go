package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/comm"
)

// nproc sizes every pool: campaign workers, service workers, clients.
func nproc() int { return runtime.GOMAXPROCS(0) }

// stream returns the RNG of one labelled stream of a benchmark seed.
// Each consumer (order, repeat, stream) owns a stream, so changing how
// many draws one takes never shifts another (SNIPPETS.md snippet 1).
func stream(seed uint64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// quantile is the linear-interpolation quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of vals and returns its 0.5-quantile.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// scratch is the one directory everything the benchmark writes lives
// under; cleanup removes it on every exit path, the watchdog's too.
var scratch struct {
	mu  sync.Mutex
	dir string
}

func cleanup() {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	if scratch.dir != "" {
		os.RemoveAll(scratch.dir)
		scratch.dir = ""
	}
}

// subDir makes a fresh directory under the scratch root.
func subDir(pattern string) (string, error) {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	if scratch.dir == "" {
		dir, err := os.MkdirTemp("", "perf-*")
		if err != nil {
			return "", err
		}
		scratch.dir = dir
	}
	return os.MkdirTemp(scratch.dir, pattern)
}

// guarded runs fn under the livelock watchdog: krylov.DistFGMRES does
// not terminate on some unvetted bit-flip identities (README "Known
// hazards") and a world cannot be cancelled, so an identity that
// overruns its deadline ends the process, naming itself.
func guarded(identity string, limit time.Duration, fn func()) {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		fmt.Fprintf(os.Stderr, "perf: watchdog: %s did not finish within %v (livelock hazard, see perf/README.md)\n", identity, limit)
		cleanup()
		os.Exit(3)
	}
}

// refRun is one identity's reference execution: the record the timed
// ops must reproduce byte for byte, and the simulator's own counts.
type refRun struct {
	cell   campaign.Cell
	rep    int
	rec    campaign.Record
	json   []byte
	ledger comm.LedgerSnapshot
}

// references executes every identity once, on nproc workers, each
// under the watchdog (100x the expected wall of one run, at least
// 10 s), and returns the results in input order.
func references(spec *campaign.Spec, runs []campaign.RunRef, expected time.Duration) []refRun {
	limit := max(100*expected, 10*time.Second)
	out := make([]refRun, len(runs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := runs[i]
				led := &comm.Ledger{}
				var rec campaign.Record
				guarded(spec.Name+" "+r.Cell.RunKey(r.Rep), limit, func() {
					rec = campaign.ExecuteRunEnv(spec, r.Cell, r.Rep, &campaign.ExecEnv{Ledger: led})
				})
				out[i] = refRun{cell: r.Cell, rep: r.Rep, rec: rec, json: mustJSON(rec), ledger: led.Snapshot()}
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// hostSample is a point-in-time reading of the process's own costs.
type hostSample struct {
	mallocs, allocBytes float64
	gcCPU, totalCPU     float64 // seconds, runtime/metrics
	rusageCPU           float64 // seconds, user + system
}

func (a hostSample) minus(b hostSample) hostSample {
	return hostSample{a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.rusageCPU - b.rusageCPU}
}

func (a hostSample) plus(b hostSample) hostSample {
	return hostSample{a.mallocs + b.mallocs, a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.rusageCPU + b.rusageCPU}
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := hostSample{mallocs: float64(ms.Mallocs), allocBytes: float64(ms.TotalAlloc)}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		s.rusageCPU = tv(ru.Utime) + tv(ru.Stime)
	}
	return s
}

// peakRSSMiB reads VmHWM, the process's high-water resident set.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("perf: VmHWM line %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("perf: no VmHWM in /proc/self/status")
}
