package dist

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/machine"
)

// scatteredMatrix builds an n×n matrix with non-symmetric sparsity and
// unsorted columns within a row, shaped against the partition over p
// ranks: rank quiet's rows reference only its own columns (a rank with
// no halo) and the first row of rank hub references one column of
// every other rank. Every other row gets a few columns anywhere.
func scatteredMatrix(n, p, quiet, hub int, seed uint64) *la.CSR {
	rng := machine.NewRNG(seed)
	pt := Partition{N: n, P: p}
	a := &la.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	hubRow, _ := pt.Range(hub)
	for i := 0; i < n; i++ {
		lo, hi := pt.Range(pt.Owner(i))
		cols := []int{i}
		switch {
		case pt.Owner(i) == quiet:
			for k := rng.Intn(4); k > 0; k-- {
				cols = append(cols, lo+rng.Intn(hi-lo))
			}
		case i == hubRow:
			for r := 0; r < p; r++ {
				if rlo, rhi := pt.Range(r); r != hub {
					cols = append(cols, rlo+rng.Intn(rhi-rlo))
				}
			}
		default:
			for k := rng.Intn(7); k > 0; k-- {
				cols = append(cols, rng.Intn(n))
			}
		}
		// Distinct columns, in random order: an inside-out shuffle.
		order := make([]int, len(cols))
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		seen := map[int]bool{}
		for _, k := range order {
			if j := cols[k]; !seen[j] {
				seen[j] = true
				a.ColIdx = append(a.ColIdx, j)
				a.Val = append(a.Val, 2*rng.Float64()-1)
			}
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// TestLayoutProperty: over random non-symmetric matrices and P in
// {1, 2, 3, 7, N}, every bound rank's Apply gives the serial product's
// rows bitwise, and the halo plans are consistent: each receive has a
// send of equal length on its owner and nothing is sent that is not
// received, ghost runs tile the operand buffer's tail in ascending
// owner order, send indices ascend, and sends are in ascending
// destination order (the message order every trace pins).
func TestLayoutProperty(t *testing.T) {
	const n = 61
	for seed := uint64(1); seed <= 6; seed++ {
		for _, p := range []int{1, 2, 3, 7, n} {
			quiet, hub := int(seed)%p, int(seed+1)%p
			a := scatteredMatrix(n, p, quiet, hub, seed)
			l := NewLayout(a, p)

			sends, recvs := 0, 0
			for r := range l.slabs {
				s := &l.slabs[r]
				lo, hi := l.pt.Range(r)
				at, prev := hi-lo, -1
				for _, rcv := range s.recvs {
					if rcv.rank <= prev || rcv.rank == r || rcv.at != at || rcv.n < 1 {
						t.Fatalf("seed %d p=%d rank %d: receive %+v after owner %d at %d", seed, p, r, rcv, prev, at)
					}
					at, prev = at+rcv.n, rcv.rank
					matched := 0
					for _, snd := range l.slabs[rcv.rank].sends {
						if snd.rank == r {
							matched++
							if len(snd.idx) != rcv.n {
								t.Errorf("seed %d p=%d: rank %d receives %d from %d, which sends %d", seed, p, r, rcv.n, rcv.rank, len(snd.idx))
							}
						}
					}
					if matched != 1 {
						t.Errorf("seed %d p=%d: rank %d's receive from %d has %d sends", seed, p, r, rcv.rank, matched)
					}
				}
				if at != hi-lo+s.ghosts {
					t.Errorf("seed %d p=%d rank %d: receives cover %d ghosts of %d", seed, p, r, at-(hi-lo), s.ghosts)
				}
				prev = -1
				for _, snd := range s.sends {
					if snd.rank <= prev || snd.rank == r {
						t.Errorf("seed %d p=%d rank %d: send to %d after %d", seed, p, r, snd.rank, prev)
					}
					prev = snd.rank
					if len(snd.idx) > s.maxSend {
						t.Errorf("seed %d p=%d rank %d: send of %d overflows the pack buffer (%d)", seed, p, r, len(snd.idx), s.maxSend)
					}
					for k, i := range snd.idx {
						if i < 0 || i >= hi-lo || (k > 0 && i <= snd.idx[k-1]) {
							t.Errorf("seed %d p=%d rank %d: send indices to %d not ascending in range: %v", seed, p, r, snd.rank, snd.idx)
							break
						}
					}
				}
				sends, recvs = sends+len(s.sends), recvs+len(s.recvs)
			}
			if sends != recvs {
				t.Errorf("seed %d p=%d: %d sends for %d receives", seed, p, sends, recvs)
			}
			if p > 1 {
				if got := len(l.slabs[quiet].recvs); got != 0 {
					t.Errorf("seed %d p=%d: rank %d references only its own columns but has %d receives", seed, p, quiet, got)
				}
				if got := len(l.slabs[hub].recvs); got != p-1 {
					t.Errorf("seed %d p=%d: rank %d references every other rank but has %d receives", seed, p, hub, got)
				}
			}

			xg := testVector(n)
			want := a.MatVec(xg, nil)
			err := comm.Run(testCfg(p), func(c *comm.Comm) error {
				op := l.Bind(c)
				y := make([]float64, op.LocalLen())
				for pass := 0; pass < 2; pass++ { // the second reuses the buffers
					if err := op.Apply(op.Scatter(xg), y); err != nil {
						return err
					}
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(want[op.Lo()+i]) {
							t.Errorf("seed %d p=%d rank %d pass %d: row %d is %v, serial %v", seed, p, c.Rank(), pass, op.Lo()+i, y[i], want[op.Lo()+i])
							break
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("seed %d p=%d: %v", seed, p, err)
			}
		}
	}
}

// TestLayoutSharedAcrossWorlds: one Layout is bound by the ranks of
// eight worlds driven from eight goroutines at once — the campaign
// engine's situation. Run under -race it shows binding and applying
// only read the shared part.
func TestLayoutSharedAcrossWorlds(t *testing.T) {
	const n, p = 97, 4
	a := randomSparse(n, 11)
	l := NewLayout(a, p)
	want := a.MatVec(testVector(n), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for world := 0; world < 5; world++ {
				err := comm.Run(testCfg(p), func(c *comm.Comm) error {
					op := l.Bind(c)
					x := op.Scatter(testVector(n))
					y := make([]float64, op.LocalLen())
					for pass := 0; pass < 3; pass++ {
						if err := op.Apply(x, y); err != nil {
							return err
						}
						for i := range y {
							if y[i] != want[op.Lo()+i] {
								t.Errorf("goroutine %d rank %d: row %d is %v, serial %v", g, c.Rank(), op.Lo()+i, y[i], want[op.Lo()+i])
								break
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestBindRejectsForeignWorld: a layout over P ranks cannot be bound in
// a world of another size.
func TestBindRejectsForeignWorld(t *testing.T) {
	l := NewLayout(randomSparse(20, 1), 2)
	defer func() {
		if recover() == nil {
			t.Error("binding a 2-rank layout in a 3-rank world did not panic")
		}
	}()
	_ = comm.Run(testCfg(3), func(c *comm.Comm) error {
		l.Bind(c)
		return nil
	})
}
