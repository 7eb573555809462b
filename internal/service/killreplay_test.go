package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// killReplaySpec is the harness campaign: small enough to crash and
// resume three times in a unit test, wide enough to cross solvers,
// preconditioners and the noise axis (16 runs over 8 cells).
func killReplaySpec() campaign.Spec {
	return campaign.Spec{
		Name: "killreplay", Seed: 11,
		Solvers:    []string{campaign.SolverPCG, campaign.SolverGMRES},
		Preconds:   []string{campaign.PrecondNone, campaign.PrecondJacobi},
		Problems:   []string{campaign.ProblemPoisson},
		Ranks:      []int{2},
		Faults:     []campaign.FaultSpec{{Model: campaign.FaultNone}},
		Noises:     []campaign.NoiseSpec{{Model: campaign.NoiseNone}, {Model: campaign.NoiseUniform, Frac: 0.1}},
		Replicates: 2, Grid: 8, Tol: 1e-6, MaxIter: 200,
	}
}

// midSSEKill is the kill point only a test can seed: one run completes
// (so the journal is non-empty), then the server dies while streaming
// the progress events of a second solve — after the nth of them.
func midSSEKill(t *testing.T, spec campaign.Spec, n int) func(*Client, *crashSink) {
	return func(cl *Client, cs *crashSink) {
		jobs := spec.ShardRuns(0, 1)
		first := NewSolveRequest(&spec, jobs[0].Cell, jobs[0].Rep)
		if _, err := cl.Solve(first); err != nil {
			t.Fatal(err)
		}
		last := jobs[len(jobs)-1]
		req := NewSolveRequest(&spec, last.Cell, last.Rep)
		req.Stream = true
		body, _ := json.Marshal(req)
		resp, err := http.Post(cl.Base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for progress := 0; progress < n; {
			ev := parseSSEOne(t, r)
			if ev == nil {
				t.Fatal("SSE stream ended before the kill point")
			}
			if ev.name == "progress" {
				progress++
			}
		}
		cs.kill()
	}
}

// TestKillReplayDeterminism runs the kill-and-replay determinism
// harness (KillReplay, the same code `solverd smoke -kill-at` runs) at
// each seeded kill point in its own journal directory: between runs
// (the 5th completed run is journaled whole, then the process dies),
// mid-journal-append (the 7th run's journal line is torn in half — the
// restart must seal the tear and treat that run as never recorded),
// after the clients hold 6 answers (runs still in flight are lost with
// the process) and mid-SSE-stream. KillReplay requires the resumed records and aggregate
// byte-identical to uninterrupted direct execution, every journaled run
// served as a journal hit, no recorded run re-executed, and a second
// restart executing nothing.
func TestKillReplayDeterminism(t *testing.T) {
	spec := killReplaySpec()
	for _, tc := range []struct {
		name string
		kp   KillPoint
	}{
		{"between-runs", KillPoint{Mode: "run", N: 5}},
		{"mid-journal-append", KillPoint{Mode: "journal", N: 7}},
		{"after-client-answers", KillPoint{Mode: "stream", N: 6}},
		{"mid-sse-stream", KillPoint{Mode: "sse", N: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kp := tc.kp
			if kp.Mode == "sse" {
				kp.drive = midSSEKill(t, spec, kp.N)
			}
			dir := t.TempDir()
			res, err := KillReplay(spec, "killreplay", dir, filepath.Join(dir, "journal"), 4, []KillPoint{kp})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%+v", *res)
		})
	}
}

// TestParseKillPoints pins the -kill-at grammar: mode:N lists with a
// known mode and a whole number N >= 1, nothing trailing.
func TestParseKillPoints(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []KillPoint // nil: rejected
	}{
		{"run:40", []KillPoint{{Mode: "run", N: 40}}},
		{"run:40,stream:3,journal:80", []KillPoint{{Mode: "run", N: 40}, {Mode: "stream", N: 3}, {Mode: "journal", N: 80}}},
		{" journal:1 , run:2", []KillPoint{{Mode: "journal", N: 1}, {Mode: "run", N: 2}}},
		{"run:0", nil},
		{"run:-3", nil},
		{"sse:3", nil},
		{"run", nil},
		{"", nil},
		{"run:40,", nil},
		{"run:40x", nil},
		{"journal:8 0", nil},
	} {
		got, err := ParseKillPoints(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseKillPoints(%q) accepted as %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseKillPoints(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseKillPoints(%q) = %+v, want %+v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i].Mode != tc.want[i].Mode || got[i].N != tc.want[i].N {
				t.Errorf("ParseKillPoints(%q)[%d] = %s:%d, want %s:%d", tc.in, i, got[i].Mode, got[i].N, tc.want[i].Mode, tc.want[i].N)
			}
		}
	}
}
