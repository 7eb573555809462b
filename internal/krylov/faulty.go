package krylov

import "repro/internal/fault"

// FaultyOp is the fault adapter on Op: every product is an occurrence of
// fault.SiteApply on a serial injector, whose flips strike the result —
// the software stand-in for silent data corruption in the dominant
// solver kernel (SpMV). It reports the clean operator's NormInf, which
// is what the skeptical bound check needs (the bound describes the
// *intended* operator).
type FaultyOp struct {
	Inner  Op
	Faults *fault.Injector
}

// NewFaultyOp binds p to inner's products (fault.Serial): a plan that
// could not fire on them as written, or one holding a kill, is an error.
func NewFaultyOp(inner Op, p fault.Plan) (*FaultyOp, error) {
	in, err := fault.Serial(p, inner.Size())
	if err != nil {
		return nil, err
	}
	return &FaultyOp{Inner: inner, Faults: in}, nil
}

// Apply implements Op: the clean product, then injected corruption. A
// serial plan holds no kill, so entering the site cannot fail.
func (f *FaultyOp) Apply(x, y []float64) {
	_ = f.Faults.Enter(fault.SiteApply, -1)
	f.Inner.Apply(x, y)
	f.Faults.Corrupt(fault.SiteApply, y)
}

// Size implements Op.
func (f *FaultyOp) Size() int { return f.Inner.Size() }

// NormInf implements Op.
func (f *FaultyOp) NormInf() float64 { return f.Inner.NormInf() }
