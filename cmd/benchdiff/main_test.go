package main

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/usagecheck"
)

// TestDocumentedInvocationsParse pins every benchdiff snippet in this
// command's doc comment, the README, the docs and the CI workflow
// against the real per-mode flag sets, so the usage text cannot drift
// from the flags main parses. usagecheck keys on the token before the
// first flag, and "run" and "compare" also follow `go` and `campaign`,
// so it reads only the words after each benchdiff token.
func TestDocumentedInvocationsParse(t *testing.T) {
	modes := map[string]func() *flag.FlagSet{
		"run":     func() *flag.FlagSet { fs, _ := newRunFlags(); return fs },
		"compare": func() *flag.FlagSet { fs, _ := newCompareFlags(); return fs },
		"tables":  func() *flag.FlagSet { fs, _ := newTablesFlags(); return fs },
	}
	sources := []string{"main.go", "../../README.md", "../../docs/BENCHMARKING.md", "../../docs/ARCHITECTURE.md", "../../docs/CAMPAIGNS.md", "../../.github/workflows/ci.yml"}
	seen := map[string]int{}
	for _, path := range sources {
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		text := afterBenchdiff(string(data))
		for mode, mk := range modes {
			seen[mode] += len(usagecheck.Snippets(text, mode))
			for _, p := range usagecheck.Verify(text, mode, mk) {
				t.Errorf("%s: benchdiff %s", path, p)
			}
		}
	}
	for mode := range modes {
		if seen[mode] == 0 {
			t.Errorf("no documented benchdiff %s invocations found — the drift test is checking nothing", mode)
		}
	}
}

// afterBenchdiff returns, one line each, the words that follow every
// benchdiff token in text (a bare `benchdiff` or a path ending in
// /benchdiff). Inline code spans are split out first, so prose around
// a span never reads as arguments.
func afterBenchdiff(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.ReplaceAll(text, "`", "\n"), "\n") {
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "benchdiff" || strings.HasSuffix(f, "/benchdiff") {
				b.WriteString(strings.Join(fields[i+1:], " "))
				b.WriteByte('\n')
				break
			}
		}
	}
	return b.String()
}

// TestDefaultsAreSane guards the values the doc comment and the usage
// text advertise.
func TestDefaultsAreSane(t *testing.T) {
	rfs, ro := newRunFlags()
	if err := rfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ro.label != "dev" || ro.out != "" || ro.exps != "" {
		t.Errorf("run defaults drifted: %+v", ro)
	}
	if ro.quick || ro.expsOnly || ro.q {
		t.Errorf("run switches drifted: %+v", ro)
	}
	cfs, th := newCompareFlags()
	if err := cfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *th != bench.DefaultThresholds() {
		t.Errorf("compare defaults drifted: %+v", *th)
	}
	tfs, to := newTablesFlags()
	if err := tfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if to.exp != "fast" || to.seed != 1 || to.list {
		t.Errorf("tables defaults drifted: %+v", to)
	}
}

// TestSelectIDs covers the -exp selector against the live index:
// "fast" is every experiment not marked Slow, in index order, "all" is
// the whole index, and explicit lists pass through trimmed.
func TestSelectIDs(t *testing.T) {
	var all, fast []string
	for _, e := range bench.Experiments() {
		all = append(all, e.ID)
		if !e.Slow {
			fast = append(fast, e.ID)
		}
	}
	if got := selectIDs("all"); !slices.Equal(got, all) {
		t.Errorf("all selected %v, want %v", got, all)
	}
	if len(fast) == 0 || len(fast) == len(all) {
		t.Fatalf("index has %d fast of %d experiments", len(fast), len(all))
	}
	if got := selectIDs("fast"); !slices.Equal(got, fast) {
		t.Errorf("fast selected %v, want %v", got, fast)
	}
	if got := selectIDs("F1, T4"); !slices.Equal(got, []string{"F1", "T4"}) {
		t.Errorf("list selection: %v", got)
	}
}
