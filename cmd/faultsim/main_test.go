package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/usagecheck"
)

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
// implicit mode went unguarded and unreported, and an empty world
// panicked; each is now a usage error, exit status 2, naming the flag.
func TestRejectsIgnoredInputs(t *testing.T) {
	if args := os.Getenv("FAULTSIM_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"faultsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
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
		// No kill is asked for, so its step is not checked.
		{small + "-kill-rank -1 -kill-step 99", "recoveries:            0", 0},
		// The default -sdc-rank 2 is outside this world, but no flip is asked for.
		{small + "-ranks 2 -kill-rank 1", "recoveries:            1", 0},
		{small + "-implicit -ranks 9", "lflr: 9 ranks exceed 8 grid rows", 1},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsIgnoredInputs$")
		cmd.Env = append(os.Environ(), "FAULTSIM_CHILD_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("faultsim %s: exit %d, want %d with %q in:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}
