package precond

import (
	"slices"
	"sort"

	"repro/internal/la"
)

// maxLanes is the number of grid rows a block-ILU wave step carries at
// once.
const maxLanes = 4

// A sweepStep is one stretch of a block-ILU sweep: lanes row ranges
// [lo[l], lo[l]+n), every row of which stores its columns at offsets
// off, the diagonal at off[d]. A one-lane step is a stretch of one row
// run, swept in row order (last row first going backward). A step of
// four lanes is a wavefront over the 5-point interior rows of as many
// grid rows: at each k it solves row lo[0]+k, then lo[1]+k, … — k
// rising in the forward sweep, falling in the backward one — so
// consecutive rows of one lane form a dependency chain and the lanes'
// chains run side by side.
type sweepStep struct {
	off   []int
	d     int
	lo    [maxLanes]int
	lanes int
	n     int
}

// A band is maxLanes consecutive grid rows of width nx, the first
// starting at row a: grid row l holds rows a+l·nx … a+l·nx+nx−1, of
// which all but the first and last are one row run with offsets
// off = −nx, −1, 0, 1, nx.
type band struct {
	a, nx int
	off   []int
}

// row is grid row l, column c of the band.
func (bd band) row(l, c int) int { return bd.a + l*bd.nx + c }

// schedules derives the order in which the forward and the backward
// sweep solve the block's rows. Each row's operations are fixed — its
// subtractions in storage order, then its divide — but independent
// rows need not run in row order: in a 5-point block, forward row i
// needs rows i−1 and i−nx only, so grid row g at column c waits on
// column c of grid row g−1 alone (the wavefront ordering of sparse
// triangular solves), and the sweep can carry four grid rows at once,
// each a column behind the one before. A schedule is kept only if safe
// says it reads every value the row-order sweep reads; anything else —
// a tridiagonal block, one thinner than four grid rows, an odd pattern
// — sweeps in row order, run by run.
func (b *BlockJacobi) schedules(runs []la.RowRun) (fwd, bwd []sweepStep) {
	bands := gridBands(runs)
	fwd, bwd = b.forwardSchedule(runs, bands), b.backwardSchedule(runs, bands)
	if len(bands) == 0 {
		return fwd, bwd // row order, run by run
	}
	pos := make([]int, b.n)
	if !b.safe(fwd, true, pos) {
		fwd = b.forwardSchedule(runs, nil)
	}
	if !b.safe(bwd, false, pos) {
		bwd = b.backwardSchedule(runs, nil)
	}
	return fwd, bwd
}

// gridBands finds the block's bands in row order: a run of nx−2 rows
// with offsets −nx, −1, 0, 1, nx is the interior of a grid row, and
// the three grid rows whose interiors follow it every nx rows make a
// band with it. Grid rows left over, fewer than four, sweep in row
// order. A band needs at least one column of wavefront: nx ≥ 6.
func gridBands(runs []la.RowRun) []band {
	var out []band
	next := 0 // the first row no band holds
	for k, r := range runs {
		nx := r.Hi - r.Lo + 2
		if nx < maxLanes+2 || r.Lo-1 < next || !slices.Equal(r.Off, []int{-nx, -1, 0, 1, nx}) {
			continue
		}
		full := true
		for l := 1; l < maxLanes && full; l++ {
			lo := r.Lo + l*nx
			j := k + sort.Search(len(runs)-k, func(j int) bool { return runs[k+j].Lo >= lo })
			full = j < len(runs) && runs[j].Lo == lo && runs[j].Hi == r.Hi+l*nx && slices.Equal(runs[j].Off, r.Off)
		}
		if full {
			out = append(out, band{a: r.Lo - 1, nx: nx, off: r.Off})
			next = r.Lo - 1 + maxLanes*nx
		}
	}
	return out
}

// forwardSchedule sweeps the rows between bands in row order and each
// band skewed: lane l first solves its columns 0 … 3−l one by one, the
// four lanes then advance together over columns 4−l … nx−2−l, and each
// lane finishes its last columns one by one.
func (b *BlockJacobi) forwardSchedule(runs []la.RowRun, bands []band) []sweepStep {
	s := make([]sweepStep, 0, len(runs)+maxLanes*len(bands)) // a band adds 3 steps to its 12 runs
	at := 0
	for _, bd := range bands {
		s = b.appendRows(s, runs, at, bd.a)
		L, nx := maxLanes, bd.nx
		for l := 0; l < L; l++ {
			s = b.appendRows(s, runs, bd.row(l, 0), bd.row(l, L-l))
		}
		w := sweepStep{off: bd.off, d: 2, lanes: L, n: nx - 1 - L}
		for l := 0; l < L; l++ {
			w.lo[l] = bd.row(l, L-l)
		}
		s = append(s, w)
		for l := 0; l < L; l++ {
			s = b.appendRows(s, runs, bd.row(l, nx-1-l), bd.row(l, nx))
		}
		at = bd.row(L, 0)
	}
	return b.appendRows(s, runs, at, b.n)
}

// backwardSchedule mirrors forwardSchedule from the last row up: bands
// last to first, lane l of a band being its grid row 3−l, which solves
// columns nx−1 … nx−4+l one by one, advances with the other lanes down
// to column 1+l, and finishes columns l … 0. Steps are listed in the
// order the backward sweep runs them.
func (b *BlockJacobi) backwardSchedule(runs []la.RowRun, bands []band) []sweepStep {
	s := make([]sweepStep, 0, len(runs)+maxLanes*len(bands)) // a band adds 3 steps to its 12 runs
	at := b.n
	for k := len(bands) - 1; k >= 0; k-- {
		bd := bands[k]
		L, nx := maxLanes, bd.nx
		s = b.appendRowsBackward(s, runs, bd.row(L, 0), at)
		for l := 0; l < L; l++ {
			s = b.appendRowsBackward(s, runs, bd.row(L-1-l, nx-L+l), bd.row(L-1-l, nx))
		}
		w := sweepStep{off: bd.off, d: 2, lanes: L, n: nx - 1 - L}
		for l := 0; l < L; l++ {
			w.lo[l] = bd.row(L-1-l, 1+l)
		}
		s = append(s, w)
		for l := 0; l < L; l++ {
			s = b.appendRowsBackward(s, runs, bd.row(L-1-l, 0), bd.row(L-1-l, l+1))
		}
		at = bd.a
	}
	return b.appendRowsBackward(s, runs, 0, at)
}

// appendRows appends rows [lo, hi) as one-lane steps, one per run they
// meet, first row first.
func (b *BlockJacobi) appendRows(s []sweepStep, runs []la.RowRun, lo, hi int) []sweepStep {
	k := sort.Search(len(runs), func(k int) bool { return runs[k].Hi > lo })
	for ; lo < hi; k++ {
		end := min(runs[k].Hi, hi)
		s = append(s, b.runStep(runs[k], lo, end))
		lo = end
	}
	return s
}

// appendRowsBackward appends rows [lo, hi) as one-lane steps, one per
// run they meet, last run first.
func (b *BlockJacobi) appendRowsBackward(s []sweepStep, runs []la.RowRun, lo, hi int) []sweepStep {
	k := sort.Search(len(runs), func(k int) bool { return runs[k].Hi >= hi })
	for ; hi > lo; k-- {
		start := max(runs[k].Lo, lo)
		s = append(s, b.runStep(runs[k], start, hi))
		hi = start
	}
	return s
}

// runStep is the one-lane step over rows [lo, hi) of run r. Its
// diagonal sits where the block found the row's diagonal entry.
func (b *BlockJacobi) runStep(r la.RowRun, lo, hi int) sweepStep {
	return sweepStep{off: r.Off, d: b.diagPtr[lo] - b.rowPtr[lo], lo: [maxLanes]int{lo}, lanes: 1, n: hi - lo}
}

// safe reports whether running steps solves every row of the block
// exactly once and exactly as the row-order sweep does:
//   - every row a step solves stores its columns at the step's offsets
//     (the step's loop addresses its operands by offset);
//   - for every entry j a row i reads (forward: those stored before
//     its diagonal; backward: after), j is solved before i exactly
//     when the row-order sweep solves it before i — so i reads j's new
//     value where that sweep does and the old one where it does;
//   - where a step keeps the neighbour it carries in a register (the
//     5-point −1 or +1 neighbour), each lane's first such value is
//     solved before the step starts.
//
// pos is scratch of one int per row.
func (b *BlockJacobi) safe(steps []sweepStep, forward bool, pos []int) bool {
	clear(pos) // pos[i] = 1 + the number of rows solved before row i
	t := 0
	for _, s := range steps {
		if s.n < 1 || s.d < 0 || s.d >= len(s.off) || (s.lanes != 1 && s.lanes != maxLanes) ||
			(s.lanes == maxLanes && (len(s.off) != 5 || !carries(s.off, s.d, forward))) {
			return false
		}
		for l := 0; l < s.lanes; l++ {
			lo, hi := s.lo[l], s.lo[l]+s.n
			if lo < 0 || hi > b.n {
				return false
			}
			if c := carried(s, l, forward); c >= 0 && c < b.n && pos[c] == 0 {
				return false
			}
		}
		for kk := 0; kk < s.n; kk++ {
			k := kk
			if !forward {
				k = s.n - 1 - kk
			}
			for l := 0; l < s.lanes; l++ {
				i := s.lo[l] + k
				if pos[i] != 0 || !b.stores(i, s.off, s.d) {
					return false
				}
				t++
				pos[i] = t
			}
		}
	}
	if t != b.n {
		return false
	}
	for i := 0; i < b.n; i++ {
		lo, hi := b.rowPtr[i], b.diagPtr[i]
		if !forward {
			lo, hi = b.diagPtr[i]+1, b.rowPtr[i+1]
		}
		for _, j := range b.colIdx[lo:hi] {
			if ((j < i) == forward) != (pos[j] < pos[i]) {
				return false
			}
		}
	}
	return true
}

// stores reports whether row i stores exactly the columns i+off, in
// that order, with its diagonal entry at off[d].
func (b *BlockJacobi) stores(i int, off []int, d int) bool {
	cols := b.colIdx[b.rowPtr[i]:b.rowPtr[i+1]]
	if len(cols) != len(off) || b.diagPtr[i] != b.rowPtr[i]+d {
		return false
	}
	for m, j := range cols {
		if j != i+off[m] {
			return false
		}
	}
	return true
}

// carries reports whether the sweep loops keep a neighbour in a
// register for rows with offsets off and the diagonal at d: forward,
// a far entry then the −1 neighbour before it; backward, the +1
// neighbour then a far one after it.
func carries(off []int, d int, forward bool) bool {
	if forward {
		return d == 2 && off[1] == -1
	}
	return d >= 0 && len(off)-d-1 == 2 && off[d+1] == 1
}

// carried is the row whose value lane l of step s loads into its
// register before its first row, or −1 if the step carries none.
func carried(s sweepStep, l int, forward bool) int {
	switch {
	case !carries(s.off, s.d, forward):
		return -1
	case forward:
		return s.lo[l] - 1
	default:
		return s.lo[l] + s.n
	}
}
