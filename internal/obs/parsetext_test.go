package obs

import (
	"strings"
	"testing"
)

// TestParseTextRoundTripsEveryKind pins the satellite contract for the
// exposition parser: a registry holding every metric kind — counter,
// gauge, histogram, and the CounterFunc/GaugeFunc bridges — writes an
// exposition that ParseText reads back to exactly the values written,
// including histogram +Inf buckets and escaped label values.
func TestParseTextRoundTripsEveryKind(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_counter_total", "a counter").v.Add(5)
	r.GaugeFunc("rt_gauge", "a gauge", func() float64 { return -2.5 })
	h := r.Histogram("rt_hist_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second bucket
	h.Observe(10)   // +Inf only
	r.CounterFunc("rt_bridge_total", "a counter bridge", func() float64 { return 42 })
	r.GaugeFunc("rt_bridge_gauge", "a gauge bridge", func() float64 { return 0.125 })
	r.Counter("rt_labeled_total", "escaping",
		Label{Key: "path", Value: "a\"b\\c\nend"}).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText([]byte(b.String()))
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition: %v\n%s", err, b.String())
	}

	for name, want := range map[string]float64{
		"rt_counter_total":                      5,
		"rt_gauge":                              -2.5,
		`rt_hist_seconds_bucket{le="0.1"}`:      1,
		`rt_hist_seconds_bucket{le="1"}`:        2,
		`rt_hist_seconds_bucket{le="+Inf"}`:     3,
		"rt_hist_seconds_sum":                   10.55,
		"rt_hist_seconds_count":                 3,
		"rt_bridge_total":                       42,
		"rt_bridge_gauge":                       0.125,
		`rt_labeled_total{path="a\"b\\c\nend"}`: 1,
	} {
		got, ok := series[name]
		if !ok {
			t.Errorf("round trip lost series %s; parsed keys: %v", name, keys(series))
			continue
		}
		if got != want {
			t.Errorf("%s = %g after round trip, want %g", name, got, want)
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
