package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/usagecheck"
)

// TestMain runs main instead of the tests when FAULTSIM_CHILD_ARGS is
// set: that is how TestRejectsIgnoredInputs and TestScenariosGolden run
// faultsim in a child process and read its output and exit status.
func TestMain(m *testing.M) {
	if args := os.Getenv("FAULTSIM_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"faultsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs faultsim with args in a child process and returns its
// stdout, its stderr and its exit status.
func runChild(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FAULTSIM_CHILD_ARGS="+args)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestDocumentedInvocationsParse pins every faultsim snippet in this
// command's doc comment and the repository README against the real flag
// set, so the usage text cannot drift from the flags main parses.
func TestDocumentedInvocationsParse(t *testing.T) {
	sources := []string{"main.go", "../../README.md", "../../docs/ARCHITECTURE.md", "../../.github/workflows/ci.yml"}
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
		seen += len(usagecheck.Snippets(text, "faultsim"))
		for _, p := range usagecheck.Verify(text, "faultsim", func() *flag.FlagSet {
			fs, _ := newFlags()
			return fs
		}) {
			t.Errorf("%s: %s", path, p)
		}
	}
	if seen == 0 {
		t.Error("no documented faultsim invocations found — the drift test is checking nothing")
	}
}

// TestDefaultsAreSane guards the values the doc comment advertises.
func TestDefaultsAreSane(t *testing.T) {
	fs, o := newFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.ranks != 8 || o.steps != 400 || o.killRank != 3 || o.killStep != 237 || o.persist != 20 {
		t.Errorf("defaults drifted: %+v", o)
	}
}

// TestRejectsIgnoredInputs runs main in a child process: a flip bit
// outside the word, a victim rank or step outside the world or the run,
// and a persist or coarsening interval below 1 used to be ignored in
// silence (the run printed "sdc: bit 64" and flipped nothing), a flip in
// implicit mode went unguarded and unreported, a flag the chosen run
// never reads changed nothing, and an empty world panicked; each is now
// a usage error, exit status 2, naming the flag.
func TestRejectsIgnoredInputs(t *testing.T) {
	small := "-nx 4 -ny 8 -steps 6 -kill-step 3 -persist 2 "
	for _, tc := range []struct {
		args, want string
		code       int
	}{
		{small + "-sdc-bit 64", "-sdc-bit 64", 2},
		{small + "-sdc-bit -2", "-sdc-bit -2", 2},
		{small + "-kill-rank 8", "-kill-rank 8", 2},
		{small + "-ranks 4 -sdc-bit 3 -sdc-rank 4", "-sdc-rank 4", 2},
		{small + "-ranks 4 -sdc-bit 3 -sdc-rank -1", "-sdc-rank -1", 2},
		{small + "-ranks 0 -kill-rank -1", "-ranks 0", 2},
		{small + "-ranks 0", "-ranks 0", 2},
		{small + "-kill-step 6", "-kill-step 6", 2},
		{small + "-sdc-bit 52 -sdc-step 6", "-sdc-step 6", 2},
		{small + "-implicit -kill-step 6", "-kill-step 6", 2},
		{small + "-kill-rank -5", "-kill-rank -5", 2},
		{small + "-persist -3", "-persist -3", 2},
		{small + "-implicit -coarsen 0", "-coarsen 0", 2},
		{small + "-implicit -kill-rank -1 -sdc-bit 62 -sdc-step 3", "-sdc-bit 62 with -implicit", 2},
		// Flags the chosen run never reads.
		{small + "-kill-rank -1 -kill-step 99", "-kill-step 99 with -kill-rank -1", 2},
		{"-nx 4 -ny 8 -steps 6 -kill-step 3 -implicit -coarsen 4 -persist 7", "-persist 7 with -implicit", 2},
		{"-nx 4 -ny 8 -steps 6 -kill-step 3 -implicit -guard=false", "-guard false with -implicit", 2},
		{small + "-coarsen 8", "-coarsen 8 without -implicit", 2},
		{small + "-sdc-rank 5", "-sdc-rank 5 without -sdc-bit", 2},
		{small + "-sdc-step 4", "-sdc-step 4 without -sdc-bit", 2},
		// The default -sdc-rank 2 is outside this world, but no flip is asked for.
		{small + "-ranks 2 -kill-rank 1", "recoveries:            1", 0},
		{"-nx 4 -ny 8 -steps 6 -kill-step 3 -implicit -ranks 9", "lflr: 9 ranks exceed 8 grid rows", 1},
	} {
		stdout, stderr, code := runChild(t, tc.args)
		if out := stdout + stderr; code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("faultsim %s: exit %d, want %d with %q in:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}

// scenariosGolden holds faultsim's whole printout for the three
// documented scenarios and the unguarded flip: virtual times, replay
// counts and the final energy, which CI's one-line greps do not see. To
// re-record after a deliberate change, delete the file and run the
// test: it writes the file and fails.
const scenariosGolden = "testdata/scenarios.golden.txt"

func TestScenariosGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range []string{
		"-ranks 8 -steps 400 -kill-rank 3 -kill-step 237 -persist 20",
		"-implicit -coarsen 4",
		"-sdc-bit 62 -guard -kill-rank -1",
		"-sdc-bit 62 -guard=false -kill-rank -1",
	} {
		stdout, stderr, code := runChild(t, args)
		if code != 0 {
			t.Fatalf("faultsim %s: exit %d\n%s", args, code, stderr)
		}
		got.WriteString("$ faultsim " + args + "\n" + stdout)
	}

	want, err := os.ReadFile(scenariosGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(scenariosGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenariosGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this build; review and commit it", scenariosGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("printout differs from %s\n got:\n%s\nwant:\n%s", scenariosGolden, got.String(), want)
	}
}
