package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/usagecheck"
)

// TestDocumentedInvocationsParse pins every solverd snippet in this
// command's doc comment, the README and docs/SERVICE.md against the
// real per-mode flag sets, so the usage text cannot drift from the
// flags main parses. Snippets are matched by mode name ("serve",
// "smoke") because usagecheck keys on the token immediately before the
// first flag.
func TestDocumentedInvocationsParse(t *testing.T) {
	modes := map[string]func() *flag.FlagSet{
		"serve": func() *flag.FlagSet { fs, _ := newServeFlags(); return fs },
		"smoke": func() *flag.FlagSet { fs, _ := newSmokeFlags(); return fs },
	}
	sources := []string{"main.go", "../../README.md", "../../docs/SERVICE.md", "../../docs/ARCHITECTURE.md", "../../docs/OBSERVABILITY.md"}
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
		t.Error("no documented solverd invocations found — the drift test is checking nothing")
	}
}

// TestDefaultsAreSane guards the values the doc comment advertises.
func TestDefaultsAreSane(t *testing.T) {
	sfs, so := newServeFlags()
	if err := sfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if so.addr != ":8077" || so.workers != 0 || so.queue != 0 || so.pprof || so.traceDir != "" {
		t.Errorf("serve defaults drifted: %+v", so)
	}
	if so.journalDir != "" || so.journalFsync != "always" || so.cacheMax != 0 {
		t.Errorf("serve durability defaults drifted: %+v", so)
	}
	kfs, ko := newSmokeFlags()
	if err := kfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ko.spec != "quick" || ko.label != "smoke" || ko.outdir != "" {
		t.Errorf("smoke defaults drifted: %+v", ko)
	}
	if ko.killAt != "" || ko.journalDir != "" {
		t.Errorf("smoke kill-replay defaults drifted: %+v", ko)
	}
}

// TestParseLogLevel: each documented -log-level value keeps the records
// at or above its level, "off" writes nothing, and any other value is
// rejected.
func TestParseLogLevel(t *testing.T) {
	all := "level=debug msg=d\nlevel=info msg=i\nlevel=warn msg=w\nlevel=error msg=e\n"
	for _, tc := range []struct {
		name, want string
		bad        bool
	}{
		{name: "debug", want: all},
		{name: "info", want: all[strings.Index(all, "level=info"):]},
		{name: "warn", want: all[strings.Index(all, "level=warn"):]},
		{name: "error", want: all[strings.Index(all, "level=error"):]},
		{name: "off", want: ""},
		{name: "verbose", bad: true},
	} {
		var buf bytes.Buffer
		l, err := parseLogLevel(&buf, tc.name)
		if tc.bad {
			if err == nil {
				t.Errorf("-log-level %s accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("-log-level %s: %v", tc.name, err)
		}
		l.Debug("d")
		l.Info("i")
		l.Warn("w")
		l.Error("e")
		var got strings.Builder
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			// Drop the ts= field: the clock is not under test here.
			if _, rest, ok := strings.Cut(line, " "); ok {
				got.WriteString(rest)
			}
		}
		if got.String() != tc.want {
			t.Errorf("-log-level %s wrote\n%s\nwant\n%s", tc.name, got.String(), tc.want)
		}
	}
}
