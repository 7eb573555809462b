package campaign

import (
	"encoding/json"
	"testing"
)

// FuzzSpec feeds arbitrary bytes to the campaign spec decoder and
// validator — what LoadSpec and the solve service's /v1/campaign do with
// a client's file or body. For every spec Validate accepts whose axes
// are small enough to expand here, expansion must terminate without a
// panic, yield at most the product of the axis lengths, number its cells
// densely, and give every run a key of its own: a repeated key is a run
// that executes but can never aggregate.
func FuzzSpec(f *testing.F) {
	for _, s := range []Spec{QuickSpec(), FullSpec()} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"dup","solvers":["gmres","gmres"],"preconds":["none"],"problems":["poisson"],"ranks":[2,2],` +
		`"faults":[{"model":"none"}],"replicates":2,"grid":8,"tol":1e-8,"max_iter":10}`))
	f.Add([]byte(`{"name":"n","solvers":["cg"],"preconds":["none"],"problems":["heat"],"ranks":[1],` +
		`"faults":[{"model":"bitflip","rate":0.5},{"model":"bitflip","rate":0.5,"mtbf":3}],` +
		`"noises":[{},{"model":"none"}],"replicates":1,"grid":4,"tol":1,"max_iter":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	const maxCells = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		bound := 1
		for _, n := range []int{len(s.Solvers), len(s.Preconds), len(s.Problems), len(s.Ranks), len(s.Faults), len(s.noiseAxis())} {
			if bound *= n; bound > maxCells {
				return
			}
		}
		cells := s.Cells()
		if len(cells) > bound {
			t.Fatalf("%d cells from axes whose product is %d", len(cells), bound)
		}
		seen := make(map[string]bool, len(cells))
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d carries index %d", i, c.Index)
			}
			for rep := 0; rep < min(s.Replicates, 3); rep++ {
				k := c.RunKey(rep)
				if seen[k] {
					t.Fatalf("run key %s appears twice in an accepted spec", k)
				}
				seen[k] = true
			}
		}
	})
}
