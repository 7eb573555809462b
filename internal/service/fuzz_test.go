package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSolveRequest feeds arbitrary bytes to the repro-solve/v1 request
// path the HTTP handler runs before anything is queued: decodeStrict
// and Validate must refuse or accept without panicking, and a request
// they accept must survive its own encoding — marshalled and decoded
// again it is accepted again and names the same run (RequestID), which
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
		if decodeStrict(bytes.NewReader(data), &req) != nil || req.Validate() != nil {
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
		if err := back.Validate(); err != nil {
			t.Fatalf("an accepted request's own encoding is refused: %v\n%s", err, again)
		}
		if RequestID(&back) != RequestID(&req) {
			t.Fatalf("request identity changed across its own encoding: %s → %s\n%s", RequestID(&req), RequestID(&back), again)
		}
	})
}
