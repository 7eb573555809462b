package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// FuzzSolveRequest feeds arbitrary bytes to the repro-solve/v1 request
// path the HTTP handler runs before anything is queued: decodeStrict
// and Validate must refuse or accept without panicking, and a request
// they accept must survive its own encoding — marshalled and decoded
// again it is accepted again and names the same run (requestIDOf), which
// is what lets a client, the journal and a replay agree on identity.
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"pcg","precond":"jacobi","problem":"poisson","ranks":2,"grid":12,"seed":7,"cell":3,"rep":1,"tol":1e-6,"max_iter":400}`))
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"ftgmres","problem":"aniso","ranks":4,"grid":12,"fault":{"model":"bitflip","rate":0.001},"noise":{"model":"uniform","frac":0.25},"seed":7,"cell":0,"rep":0,"tol":1e-6,"max_iter":400,"max_restarts":3,"stream":true}`))
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"cg","precond":"jacobi","problem":"poisson","ranks":2,"grid":12,"tol":1e-6,"max_iter":10}`))
	f.Add([]byte(`{"schema":"repro-solve/v2","solver":"pcg"}`))
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"pcg","bogus":1}`))
	f.Add([]byte(`{"schema":"repro-solve/v1"} trailing`))
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"gmres","problem":"poisson","ranks":-1,"grid":1e9,"tol":-0,"max_iter":-5,"cell":-1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if decodeStrict(bytes.NewReader(data), &req) != nil {
			return
		}
		if _, _, err := req.Validate(); err != nil {
			return
		}
		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("an accepted request does not encode: %v", err)
		}
		var back SolveRequest
		if err := decodeStrict(bytes.NewReader(again), &back); err != nil {
			t.Fatalf("an accepted request's own encoding does not decode: %v\n%s", err, again)
		}
		if _, _, err := back.Validate(); err != nil {
			t.Fatalf("an accepted request's own encoding is refused: %v\n%s", err, again)
		}
		if requestIDOf(&back) != requestIDOf(&req) {
			t.Fatalf("request identity changed across its own encoding: %s → %s\n%s", requestIDOf(&req), requestIDOf(&back), again)
		}
	})
}

// FuzzParseKillPoints feeds arbitrary strings to the -kill-at parser of
// the kill-and-replay smoke: it must never panic, every point it accepts
// must name a crash the harness can stage (mode run, journal or stream,
// N >= 1), and the points joined back as "mode:N" must parse to the same
// list.
func FuzzParseKillPoints(f *testing.F) {
	for _, s := range []string{"run:40,stream:3,journal:80", "run:1", " journal:2 , stream:9 ", "", "run:0", "run:-1", "run", "walk:3", "run:+4", "run:40,", ",", "stream:99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		kps, err := ParseKillPoints(s)
		if err != nil {
			return
		}
		parts := make([]string, len(kps))
		for i, kp := range kps {
			if (kp.Mode != "run" && kp.Mode != "journal" && kp.Mode != "stream") || kp.N < 1 {
				t.Fatalf("%q accepted point %+v", s, kp)
			}
			parts[i] = fmt.Sprintf("%s:%d", kp.Mode, kp.N)
		}
		again, err := ParseKillPoints(strings.Join(parts, ","))
		if err != nil || len(again) != len(kps) {
			t.Fatalf("%q re-joined does not re-parse: %v %+v", s, err, again)
		}
		for i := range kps {
			if again[i].Mode != kps[i].Mode || again[i].N != kps[i].N {
				t.Fatalf("%q point %d re-parses as %+v, was %+v", s, i, again[i], kps[i])
			}
		}
	})
}
