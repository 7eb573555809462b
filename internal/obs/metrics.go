package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric. Labels
// distinguish series within one family (same name, same type, same
// help), e.g. repro_http_requests_total{endpoint="solve"}.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. The nil *Counter is a
// valid no-op sink, which is how disabled telemetry stays free on hot
// paths. Counters are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// atomicFloat is a float64 with atomic add/load, stored as bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// Gauge is a metric that can go up and down. The nil *Gauge is a valid
// no-op sink. Gauges are safe for concurrent use.
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.store(v)
}

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.add(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Histogram is a fixed-bucket histogram with Prometheus cumulative-le
// semantics: bucket i counts observations v with v <= bounds[i], plus an
// implicit +Inf bucket. The nil *Histogram is a valid no-op sink.
// Histograms are safe for concurrent use and allocation-free to observe.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
}

// bucketOf returns the index of the le bucket an observation of v lands
// in: the first bound >= v, or len(bounds) — the +Inf overflow — when
// there is none (a NaN lands there too). The one bucket rule, shared by
// Histogram.Observe and Tally.Observe. It is the index
// sort.SearchFloat64s returns, found by a plain scan: the layouts in use
// have at most 19 bounds and most observations land in the low ones.
func bucketOf(bounds []float64, v float64) int {
	for i, b := range bounds {
		if b >= v {
			return i
		}
	}
	return len(bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(h.bounds, v)].Add(1)
	h.sum.add(v)
}

// Tally is a single-goroutine staging area in front of one Histogram:
// Observe buckets exactly as Histogram.Observe does but with plain
// adds, and Flush merges what was staged into the histogram — bucket
// counts exactly, the sum as one addition — and empties the tally. A
// hot loop that would otherwise hit the histogram's shared cache lines
// once per observation (the solve service sees every phase span of
// every rank) touches them once per flush instead. Until the flush the
// staged observations are invisible to scrapes. The nil *Tally is a
// valid no-op sink.
type Tally struct {
	h *Histogram
	// bounds is h.bounds, copied so Observe never reads the
	// histogram's struct, whose line other goroutines' flushes write.
	bounds []float64
	counts []uint64
	sum    float64
}

// Tally returns an empty staging area for h (nil for the nil
// histogram). Any number of tallies may feed one histogram; each must
// stay on one goroutine.
func (h *Histogram) Tally() *Tally {
	if h == nil {
		return nil
	}
	return &Tally{h: h, bounds: h.bounds, counts: make([]uint64, len(h.counts))}
}

// Observe stages one value.
func (t *Tally) Observe(v float64) {
	if t == nil {
		return
	}
	t.counts[bucketOf(t.bounds, v)]++
	t.sum += v
}

// Flush merges the staged observations into the histogram and resets
// the tally for reuse.
func (t *Tally) Flush() {
	if t == nil {
		return
	}
	staged := false
	for i, n := range t.counts {
		if n != 0 {
			t.h.counts[i].Add(n)
			t.counts[i] = 0
			staged = true
		}
	}
	if staged {
		t.h.sum.add(t.sum)
		t.sum = 0
	}
}

// PhaseTally stages phase-span lengths for per-phase histograms: entry
// i is the Tally of catalogue phase i (see PhaseIndex), nil for a phase
// no histogram takes. A world feeds one from every span end (see
// comm.Config.Phases) and its owner flushes it once the run is done.
// Like a Tally it belongs to one goroutine at a time. The nil
// PhaseTally is a valid no-op sink.
type PhaseTally []*Tally

// NewPhaseTally returns an empty PhaseTally over hists, which is
// indexed like Phases (a nil entry stages nothing).
func NewPhaseTally(hists []*Histogram) PhaseTally {
	t := make(PhaseTally, len(hists))
	for i, h := range hists {
		t[i] = h.Tally()
	}
	return t
}

// Observe stages one span of the named phase; a name outside the
// catalogue is dropped.
func (t PhaseTally) Observe(phase string, dur float64) {
	if i := PhaseIndex(phase); i >= 0 && i < len(t) {
		t[i].Observe(dur)
	}
}

// Flush merges every phase's staged spans into its histogram and
// resets the tally for reuse.
func (t PhaseTally) Flush() {
	for _, tally := range t {
		tally.Flush()
	}
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// LatencyBuckets is the default bucket layout for request-latency
// histograms: exponential-ish from 1 ms to 10 s, in seconds.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// PhaseBuckets is the bucket layout of per-phase virtual-duration
// histograms: phase spans run from sub-microsecond collectives to
// multi-second preconditioner setups in virtual time, so the buckets
// are decades with a 1-2.5-5 split around the common span lengths.
func PhaseBuckets() []float64 {
	return []float64{1e-7, 1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// metricKind discriminates the exposition TYPE of one family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String returns the exposition TYPE keyword.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series.
type metric struct {
	name   string
	labels string // rendered `k="v",...` (escaped), "" for none
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // function-backed counter/gauge; nil otherwise
}

// Registry is a set of metrics with deterministic Prometheus text-format
// exposition: families sorted by name, series sorted by labels, values
// formatted canonically — so two scrapes of identical state are
// byte-identical. Registration is get-or-create keyed by (name, labels):
// asking for the same series twice returns the same metric. The nil
// *Registry is a valid no-op: every constructor returns a nil metric,
// whose methods are no-ops, which is the zero-cost disabled path.
// Registries are safe for concurrent registration, use and exposition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // key: name + "\xff" + labels
	help    map[string]string  // family name -> help text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
	}
}

// lookup returns the series for (name, labels), creating it with mk on
// first use and panicking if the existing series has a different kind —
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, mk func(*metric)) *metric {
	ls := renderLabels(labels)
	key := name + "\xff" + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, labels: ls, kind: kind}
	mk(m)
	r.metrics[key] = m
	if help != "" {
		r.help[name] = help
	}
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindCounter, labels, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindGauge, labels, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// Histogram returns the histogram for (name, labels) over the given
// bucket upper bounds (ascending; +Inf is implicit), creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindHistogram, labels, func(m *metric) {
		if !sort.Float64sAreSorted(buckets) {
			panic("obs: histogram buckets must be ascending: " + name)
		}
		m.hist = &Histogram{bounds: append([]float64(nil), buckets...), counts: make([]atomic.Uint64, len(buckets)+1)}
	})
	return m.hist
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time — the bridge to counters that already live elsewhere
// (a server's request accounting), guaranteeing /metrics and the
// original surface can never disagree. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindCounter, labels, func(m *metric) { m.fn = fn })
}

// GaugeFunc registers a gauge sampled from fn at exposition time (live
// queue depths, uptime). No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindGauge, labels, func(m *metric) { m.fn = fn })
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE line per family, then
// the series sorted by labels. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	list := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		list = append(list, m)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(list, func(i, j int) bool {
		if list[i].name != list[j].name {
			return list[i].name < list[j].name
		}
		return list[i].labels < list[j].labels
	})
	var b strings.Builder
	lastFamily := ""
	for _, m := range list {
		if m.name != lastFamily {
			lastFamily = m.name
			if h := help[m.name]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(h))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter, kindGauge:
			var v float64
			switch {
			case m.fn != nil:
				v = m.fn()
			case m.counter != nil:
				v = float64(m.counter.Value())
			default:
				v = m.gauge.Value()
			}
			fmt.Fprintf(&b, "%s%s %s\n", m.name, wrapLabels(m.labels), formatValue(v))
		case kindHistogram:
			writeHistogram(&b, m)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// with le labels, then _sum and _count.
func writeHistogram(b *strings.Builder, m *metric) {
	h := m.hist
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, wrapLabels(joinLabels(m.labels, `le="`+formatValue(bound)+`"`)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, wrapLabels(joinLabels(m.labels, `le="+Inf"`)), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", m.name, wrapLabels(m.labels), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", m.name, wrapLabels(m.labels), cum)
}

// renderLabels renders a label set canonically: sorted by key, values
// escaped. Duplicate keys are a programming error.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var parts []string
	for i, l := range ls {
		if i > 0 && l.Key == ls[i-1].Key {
			panic("obs: duplicate label key " + l.Key)
		}
		parts = append(parts, l.Key+`="`+escapeLabelValue(l.Value)+`"`)
	}
	return strings.Join(parts, ",")
}

// joinLabels appends one rendered label to a rendered set.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// wrapLabels brackets a rendered label set ("" stays "").
func wrapLabels(ls string) string {
	if ls == "" {
		return ""
	}
	return "{" + ls + "}"
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabelValue escapes backslash, double-quote and newline per the
// text exposition format.
func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatValue renders a sample value canonically (shortest round-trip
// form, so exposition is deterministic).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText parses Prometheus text exposition into a map from series
// (name plus rendered label set, exactly as written) to value. Comment
// and blank lines are skipped. It is the reconciliation helper the
// solverd smoke test and the loadgen test use to assert /metrics agrees
// with /stats.
func ParseText(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}
