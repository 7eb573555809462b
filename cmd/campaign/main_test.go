package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/usagecheck"
)

// TestDocumentedInvocationsParse pins every campaign snippet in this
// command's doc comment, the README and the docs (docs/SERVICE.md
// carries the -server invocations) against the real per-mode flag
// sets, so the usage text cannot drift from the flags main parses. Run-mode snippets key on "campaign" itself;
// compare/report snippets key on the mode token immediately before
// their first flag (see cmd/solverd for the same pattern).
func TestDocumentedInvocationsParse(t *testing.T) {
	modes := map[string]func() *flag.FlagSet{
		"campaign": func() *flag.FlagSet { fs, _ := newFlags(); return fs },
		"compare":  func() *flag.FlagSet { fs, _ := newCompareFlags(); return fs },
		"report":   func() *flag.FlagSet { fs, _ := newReportFlags(); return fs },
	}
	sources := []string{"main.go", "../../README.md", "../../docs/CAMPAIGNS.md", "../../docs/SERVICE.md", "../../docs/ARCHITECTURE.md", "../../docs/OBSERVABILITY.md"}
	seen := 0
	for _, path := range sources {
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		text := string(data)
		for mode, mk := range modes {
			seen += len(usagecheck.Snippets(text, mode))
			for _, p := range usagecheck.Verify(text, mode, mk) {
				t.Errorf("%s: %s", path, p)
			}
		}
	}
	if seen == 0 {
		t.Error("no documented campaign invocations found — the drift test is checking nothing")
	}
}

// TestDefaultsAreSane guards the values the doc comment advertises.
func TestDefaultsAreSane(t *testing.T) {
	fs, o := newFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.spec != "quick" || o.label != "dev" || o.shard != "0/1" || o.out != "" || o.resume || o.noAgg || o.aggOnly || o.trace != "" || o.chrome || o.server != "" {
		t.Errorf("defaults drifted: %+v", o)
	}
	cfs, co := newCompareFlags()
	if err := cfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	def := campaign.DefaultCompareThresholds()
	if co.rate != def.RateDrop || co.tts != def.TTSSlack || co.allowCellChanges != def.AllowCellChanges {
		t.Errorf("compare defaults drifted from DefaultCompareThresholds: %+v vs %+v", co, def)
	}
	rfs, ro := newReportFlags()
	if err := rfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ro.md != "" || ro.csv != "" {
		t.Errorf("report defaults drifted: %+v", ro)
	}
}

// devNull returns an *os.File sink for command output the test does
// not inspect.
func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCompareAgainstCommittedBaseline is the acceptance pin for the CI
// gate: a same-seed rerun of the quick spec compares clean against the
// committed CAMPAIGN_baseline.json (exit zero), and an injected
// regression against the same baseline fails (exit non-zero).
func TestCompareAgainstCommittedBaseline(t *testing.T) {
	const baseline = "../../CAMPAIGN_baseline.json"
	spec, err := campaign.LoadSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runs := filepath.Join(dir, "ci.jsonl")
	if _, err := campaign.Run(campaign.Options{Spec: spec, Out: runs, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	agg, err := campaign.AggregateFiles(spec, "ci", runs)
	if err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "CAMPAIGN_ci.json")
	if err := campaign.WriteAggregate(agg, cur); err != nil {
		t.Fatal(err)
	}
	sink := devNull(t)
	if err := runCompare([]string{baseline, cur}, sink); err != nil {
		t.Fatalf("same-seed quick rerun regressed against the committed baseline: %v\n"+
			"(if the engine's arithmetic changed on purpose, refresh the baseline — see docs/CAMPAIGNS.md)", err)
	}

	// Inject a regression: a cell that always solved now never does.
	mutated := false
	for i := range agg.Cells {
		if agg.Cells[i].SuccessRate == 1 {
			agg.Cells[i].SuccessRate = 0
			agg.Cells[i].Successes = 0
			agg.Cells[i].ExpectedTTS = nil
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no fully-successful cell in the quick aggregate to regress")
	}
	bad := filepath.Join(dir, "CAMPAIGN_bad.json")
	if err := campaign.WriteAggregate(agg, bad); err != nil {
		t.Fatal(err)
	}
	err = runCompare([]string{baseline, bad}, sink)
	if err == nil {
		t.Fatal("injected regression compared clean against the baseline")
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("compare error does not mention regressions: %v", err)
	}
}

// TestReportCLIByteDeterminism renders the committed baseline twice
// through the report mode and requires identical bytes on disk.
func TestReportCLIByteDeterminism(t *testing.T) {
	dir := t.TempDir()
	render := func(tag string) ([]byte, []byte) {
		md := filepath.Join(dir, tag+".md")
		csv := filepath.Join(dir, tag+".csv")
		if err := runReport([]string{"-md", md, "-csv", csv, "../../CAMPAIGN_baseline.json"}, devNull(t)); err != nil {
			t.Fatal(err)
		}
		m, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return m, c
	}
	m1, c1 := render("a")
	m2, c2 := render("b")
	if !bytes.Equal(m1, m2) || !bytes.Equal(c1, c2) {
		t.Error("report output differs across reruns")
	}
	if len(m1) == 0 || len(c1) == 0 {
		t.Error("report rendered empty output")
	}
}

// sortedLines returns the file's lines in sorted order: served runs
// complete in any order, so the JSONL is compared as a set.
func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	slices.Sort(lines)
	return lines
}

// TestServerRunMatchesLocal covers -server against an in-process
// solve service: the served campaign writes the local run's records
// and a byte-equal aggregate; -trace is refused before any runs file
// exists; and an unreachable server fails its health check before any
// output file is created.
func TestServerRunMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{
		Name: "served", Seed: 5,
		Solvers:    []string{campaign.SolverPCG, campaign.SolverGMRES},
		Preconds:   []string{campaign.PrecondNone, campaign.PrecondJacobi},
		Problems:   []string{campaign.ProblemPoisson},
		Ranks:      []int{2},
		Faults:     []campaign.FaultSpec{{Model: campaign.FaultNone}, {Model: campaign.FaultBitflip, Rate: 1e-3}},
		Replicates: 2, Grid: 8, Tol: 1e-6, MaxIter: 200,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// paths names one invocation's runs and aggregate files.
	paths := func(tag string) (string, string) {
		return filepath.Join(dir, tag+".jsonl"), filepath.Join(dir, "CAMPAIGN_"+tag+".json")
	}
	// runTagged runs the spec under label t through the run-mode flag
	// set, as main does, writing tag's files.
	runTagged := func(tag string, extra ...string) error {
		runs, agg := paths(tag)
		fs, o := newFlags()
		fs.SetOutput(io.Discard)
		if err := fs.Parse(append(extra, "-spec", specPath, "-label", "t", "-runs", runs, "-out", agg, "-quiet")); err != nil {
			return err
		}
		return run(fs, o)
	}

	t.Run("served-equals-local", func(t *testing.T) {
		if err := runTagged("local"); err != nil {
			t.Fatal(err)
		}
		if err := runTagged("served", "-server", ts.URL); err != nil {
			t.Fatal(err)
		}
		localRuns, localAgg := paths("local")
		servedRuns, servedAgg := paths("served")
		want, got := sortedLines(t, localRuns), sortedLines(t, servedRuns)
		if len(want) != 2*len(spec.Cells()) {
			t.Fatalf("local run wrote %d records, want %d", len(want), 2*len(spec.Cells()))
		}
		if !slices.Equal(got, want) {
			t.Errorf("served records differ from local ones:\n%s\nvs\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		a, err := os.ReadFile(localAgg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(servedAgg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Error("served aggregate is not byte-equal to the local one")
		}
		if st := srv.Stats(); st.Completed != int64(len(want)) {
			t.Errorf("server completed %d runs, want %d", st.Completed, len(want))
		}
	})

	t.Run("trace-refused", func(t *testing.T) {
		err := runTagged("traced", "-server", ts.URL, "-trace", filepath.Join(dir, "traces"))
		if err == nil || !strings.Contains(err.Error(), "tracing requires local execution") {
			t.Fatalf("-server with -trace: got %v, want the engine's incompatibility error", err)
		}
		runs, _ := paths("traced")
		if _, err := os.Stat(runs); !os.IsNotExist(err) {
			t.Errorf("refused run left a runs file (stat: %v)", err)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := "http://" + ln.Addr().String()
		ln.Close()
		err = runTagged("dead", "-server", dead)
		if err == nil || !strings.Contains(err.Error(), "is not healthy") {
			t.Fatalf("unreachable -server: got %v, want a failed health check", err)
		}
		runs, agg := paths("dead")
		for _, p := range []string{runs, agg} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("failed health check left %s (stat: %v)", p, err)
			}
		}
	})
}
