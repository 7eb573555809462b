package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same (name, labels) returns the same counter.
	if again := r.Counter("repro_test_total", ""); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("repro_test_gauge", "test gauge")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// histCount totals h's bucket counts (0 on nil).
func histCount(h *Histogram) uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", LatencyBuckets())
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || histCount(h) != 0 || h.Sum() != 0 {
		t.Fatalf("nil metrics must read as zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

// TestHistogramBucketEdges pins the le semantics: an observation equal to
// a bucket's upper bound lands in that bucket (cumulative counts include
// it), and values past the last bound land only in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repro_lat_seconds", "latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.1, 0.5, 1, 0.05, 0.3, 2} {
		h.Observe(v)
	}
	if got := histCount(h); got != 6 {
		t.Fatalf("histogram count = %d, want 6", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`repro_lat_seconds_bucket{le="0.1"}`:  2, // 0.05, 0.1 — boundary value included
		`repro_lat_seconds_bucket{le="0.5"}`:  4, // + 0.3, 0.5
		`repro_lat_seconds_bucket{le="1"}`:    5, // + 1
		`repro_lat_seconds_bucket{le="+Inf"}`: 6, // + 2
		`repro_lat_seconds_count`:             6,
	}
	for k, v := range want {
		if got, ok := series[k]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v\nexposition:\n%s", k, got, ok, v, b.String())
		}
	}
	wantSum := 0.1 + 0.5 + 1 + 0.05 + 0.3 + 2
	if got := series[`repro_lat_seconds_sum`]; got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// TestTallyMatchesDirectObservation: staging observations in tallies —
// several, flushed in pieces, reused after a flush — lands every one in
// the bucket Histogram.Observe would have chosen (bounds, values between
// them, the +Inf overflow and NaN included), and the sums agree up to
// the regrouping of the additions.
func TestTallyMatchesDirectObservation(t *testing.T) {
	bounds := []float64{1e-6, 1e-3, 0.1, 0.5, 1}
	r := NewRegistry()
	direct := r.Histogram("repro_direct", "", bounds)
	staged := r.Histogram("repro_staged", "", bounds)
	vals := []float64{0, 1e-7, 1e-6, 2e-6, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.7, 1, 2, 1e9}
	a, b := staged.Tally(), staged.Tally()
	for round := 0; round < 3; round++ {
		for i, v := range vals {
			direct.Observe(v)
			if (i+round)%2 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
		}
		a.Flush()
		if round == 1 {
			b.Flush()
		}
	}
	if histCount(staged) == histCount(direct) {
		t.Fatal("observations staged in an unflushed tally are already visible")
	}
	b.Flush()
	b.Flush() // empty: a no-op
	for i := range direct.counts {
		if got, want := staged.counts[i].Load(), direct.counts[i].Load(); got != want {
			t.Errorf("bucket %d: %d staged, %d direct", i, got, want)
		}
	}
	if got, want := staged.Sum(), direct.Sum(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("sum %v staged, %v direct", got, want)
	}

	// NaN lands in the overflow bucket on both paths (sums go NaN, as
	// they always did).
	direct.Observe(math.NaN())
	a.Observe(math.NaN())
	a.Flush()
	if last := len(bounds); staged.counts[last].Load() != direct.counts[last].Load() {
		t.Errorf("NaN: overflow bucket %d staged, %d direct", staged.counts[last].Load(), direct.counts[last].Load())
	}

	none := (*Histogram)(nil).Tally()
	none.Observe(1)
	none.Flush()
	if n := testing.AllocsPerRun(100, func() { a.Observe(0.2); a.Flush() }); n != 0 {
		t.Errorf("Tally Observe+Flush allocates %v times", n)
	}
}

// TestBucketOfMatchesSearch pins bucketOf's scan to the index
// sort.SearchFloat64s returns, on both bucket layouts in use: at every
// bound, between bounds, at 0 and below, past the last bound, at +Inf,
// and for NaN, which lands in the +Inf overflow bucket.
func TestBucketOfMatchesSearch(t *testing.T) {
	for _, bounds := range [][]float64{LatencyBuckets(), PhaseBuckets()} {
		vals := []float64{0, -1, math.Inf(-1), math.Inf(1), 2 * bounds[len(bounds)-1]}
		for i, b := range bounds {
			vals = append(vals, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
			if i > 0 {
				vals = append(vals, (bounds[i-1]+b)/2)
			}
		}
		for _, v := range vals {
			if got, want := bucketOf(bounds, v), sort.SearchFloat64s(bounds, v); got != want {
				t.Errorf("bucketOf(%v) = %d, sort.SearchFloat64s = %d", v, got, want)
			}
		}
		if got := bucketOf(bounds, math.NaN()); got != len(bounds) {
			t.Errorf("bucketOf(NaN) = %d, want the overflow bucket %d", got, len(bounds))
		}
	}
}

// TestPhaseTally: a PhaseTally routes each span to its catalogue
// phase's histogram, drops names outside the catalogue and phases
// without a histogram, and is a no-op when nil.
func TestPhaseTally(t *testing.T) {
	for i, p := range Phases() {
		if PhaseIndex(p) != i {
			t.Errorf("PhaseIndex(%q) = %d, want its catalogue position %d", p, PhaseIndex(p), i)
		}
	}
	if PhaseIndex("nope") != -1 {
		t.Error("PhaseIndex accepts a name outside the catalogue")
	}
	r := NewRegistry()
	hists := make([]*Histogram, len(Phases()))
	hists[PhaseIndex(PhaseSpMV)] = r.Histogram("spmv", "", []float64{1})
	hists[PhaseIndex(PhaseAllreduce)] = r.Histogram("allreduce", "", []float64{1})
	pt := NewPhaseTally(hists)
	pt.Observe(PhaseSpMV, 0.5)
	pt.Observe(PhaseSpMV, 2)
	pt.Observe(PhaseAllreduce, 0.25)
	pt.Observe(PhaseSanitize, 1) // no histogram
	pt.Observe("nope", 1)
	if histCount(hists[PhaseIndex(PhaseSpMV)]) != 0 {
		t.Fatal("staged spans are visible before the flush")
	}
	pt.Flush()
	spmv, ar := hists[PhaseIndex(PhaseSpMV)], hists[PhaseIndex(PhaseAllreduce)]
	if histCount(spmv) != 2 || spmv.Sum() != 2.5 || histCount(ar) != 1 || ar.Sum() != 0.25 {
		t.Errorf("spmv %d spans summing to %g, allreduce %d summing to %g; want 2/2.5 and 1/0.25",
			histCount(spmv), spmv.Sum(), histCount(ar), ar.Sum())
	}
	var none PhaseTally
	none.Observe(PhaseSpMV, 1)
	none.Flush()
}

// TestExpositionEscaping pins label-value and help escaping: backslash,
// double quote and newline must be escaped per the text format.
func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_esc_total", "help with \\ and\nnewline",
		Label{Key: "path", Value: `a"b\c` + "\nend"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantHelp := `# HELP repro_esc_total help with \\ and\nnewline`
	wantSeries := `repro_esc_total{path="a\"b\\c\nend"} 1`
	if !strings.Contains(out, wantHelp) {
		t.Errorf("missing escaped HELP line %q in:\n%s", wantHelp, out)
	}
	if !strings.Contains(out, wantSeries) {
		t.Errorf("missing escaped series line %q in:\n%s", wantSeries, out)
	}
}

// TestExpositionDeterministic pins that two scrapes of identical state
// are byte-identical: families sorted by name, series by labels.
func TestExpositionDeterministic(t *testing.T) {
	mk := func(order []string) string {
		r := NewRegistry()
		for _, ep := range order {
			r.Counter("repro_http_requests_total", "requests", Label{Key: "endpoint", Value: ep}).Inc()
		}
		r.Gauge("repro_depth", "depth").Set(2)
		r.Histogram("repro_wait_seconds", "wait", []float64{1}).Observe(0.5)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := mk([]string{"solve", "stats", "campaign"})
	c := mk([]string{"campaign", "solve", "stats"})
	if a != c {
		t.Fatalf("exposition depends on registration order:\n--- a ---\n%s--- b ---\n%s", a, c)
	}
}

func TestFuncMetricsSampleAtExposition(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.CounterFunc("repro_live_total", "live", func() float64 { return n })
	scrape := func() map[string]float64 {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		m, err := ParseText([]byte(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got := scrape()["repro_live_total"]; got != 0 {
		t.Fatalf("initial sample = %v, want 0", got)
	}
	n = 7
	if got := scrape()["repro_live_total"]; got != 7 {
		t.Fatalf("sample after update = %v, want 7", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repro_conc_seconds", "conc", LatencyBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("repro_conc_total", "conc")
			g := r.Gauge("repro_conc_gauge", "conc")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%13) / 100)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("repro_conc_total", "").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("repro_conc_gauge", "").Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	if got := histCount(h); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	if _, err := ParseText([]byte("no_value_here\n")); err == nil {
		t.Fatalf("want error for line without a value")
	}
	if _, err := ParseText([]byte("repro_x notanumber\n")); err == nil {
		t.Fatalf("want error for non-numeric value")
	}
	m, err := ParseText([]byte("# comment\n\nrepro_x 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["repro_x"] != 3 {
		t.Fatalf("repro_x = %v, want 3", m["repro_x"])
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_kind", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("repro_kind", "")
}
