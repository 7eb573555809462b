package mem

import (
	"testing"

	"repro/internal/machine"
)

// TestWorkspaceVecIsZeroed: Vec hands out zeroed vectors on the first
// carving pass (fresh regions, not cleared again) and after a Reset
// (recycled regions, cleared on the way out) — also when the second
// pass overflows into a region opened after the Reset.
func TestWorkspaceVecIsZeroed(t *testing.T) {
	w := NewWorkspace(8)
	dirty := func(v []float64) {
		for i := range v {
			v[i] = 7
		}
	}
	wantZero := func(what string, v []float64) {
		t.Helper()
		for i, x := range v {
			if x != 0 {
				t.Fatalf("%s: element %d is %v", what, i, x)
			}
		}
	}
	a, b := w.Vec(6), w.Vec(6) // b opens a second region
	wantZero("first pass", a)
	wantZero("first pass, second region", b)
	dirty(a)
	dirty(b)
	w.Reset()
	c, d, e := w.Vec(8), w.Vec(8), w.Vec(8) // e opens a third
	wantZero("recycled first region", c)
	wantZero("recycled second region", d)
	wantZero("region opened after the reset", e)
	if &c[0] != &a[0] {
		t.Error("Reset did not recycle the first region")
	}
}

// TestBorrowHandsOutZeros: whatever the previous borrower left behind —
// here two regions full of sevens — every Vec of a borrowed workspace is
// zeroed. A sync.Pool may drop what it is given (it does so on purpose
// under the race detector, and at every collection), so the round trip
// is retried until Borrow hands the dirtied workspace back.
func TestBorrowHandsOutZeros(t *testing.T) {
	for attempt := 0; attempt < 200; attempt++ {
		w := NewWorkspace(64)
		for pass := 0; pass < 2; pass++ {
			for _, v := range [][]float64{w.Vec(64), w.Vec(64)} { // the second overflows
				for i := range v {
					v[i] = 7
				}
			}
			w.Reset()
		}
		w.Return()
		got := Borrow(48)
		if got != w {
			continue
		}
		for _, n := range []int{5, 0, 30, 13, 40} { // the last moves to the second region
			for i, x := range got.Vec(n) {
				if x != 0 {
					t.Fatalf("Vec(%d) of a recycled workspace: element %d is %v", n, i, x)
				}
			}
		}
		return
	}
	t.Fatal("Borrow never handed back a returned workspace")
}

// TestBorrowReplacesTooSmall: a returned workspace too small for the
// next request is not grown — the borrower holds exactly the capacity
// asked for, and it fits in one piece.
func TestBorrowReplacesTooSmall(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		NewWorkspace(8).Return()
		w := Borrow(100)
		if got := w.Footprint(); got != 100 {
			t.Fatalf("footprint %d after Borrow(100) over an 8-element workspace, want exactly 100", got)
		}
		if v := w.Vec(100); len(v) != 100 || w.Footprint() != 100 {
			t.Fatalf("Vec(100) did not fit the borrowed region (footprint %d)", w.Footprint())
		}
	}
}

// TestReturnDropsOversize: a workspace above maxPooled — borrowed that
// large, or grown that large by overflow — is never handed out again.
func TestReturnDropsOversize(t *testing.T) {
	grown := Borrow(16)
	grown.Vec(16)
	grown.Vec(maxPooled) // opens a second region
	big := Borrow(maxPooled + 1)
	if got := big.Footprint(); got != maxPooled+1 {
		t.Fatalf("Borrow(maxPooled+1) footprint %d", got)
	}
	grown.Return()
	big.Return()
	for i := 0; i < 50; i++ {
		w := Borrow(1)
		if w == big || w == grown {
			t.Fatal("an oversize workspace was retained")
		}
		defer w.Return() // keep it out so the next Borrow digs deeper
	}
}

// TestBorrowFootprintBounded: over many rounds of mixed sizes recycling
// replaces storage, it does not accumulate it — a request above
// maxPooled gets exactly what it asked for, and no other workspace ever
// exceeds maxPooled, whatever earlier borrowers (this test's or another
// test's) left in the pool.
func TestBorrowFootprintBounded(t *testing.T) {
	rng := machine.NewRNG(6)
	sizes := []int{1, 90, 700, 2500, 6000, maxPooled, maxPooled + 1, 300000}
	for round := 0; round < 1000; round++ {
		c := sizes[rng.Intn(len(sizes))]
		w := Borrow(c)
		for left := c; left > 0; {
			n := 1 + rng.Intn(left)
			v := w.Vec(n)
			for i, x := range v {
				if x != 0 {
					t.Fatalf("round %d: dirty vector from Borrow(%d)", round, c)
				}
				v[i] = 7
			}
			left -= n
		}
		if got := w.Footprint(); got < c || got > max(c, maxPooled) {
			t.Fatalf("round %d: Borrow(%d) holds %d elements", round, c, got)
		}
		w.Return()
	}
}
