package dist

import "repro/internal/fault"

// Faulty is the fault adapter on Operator: every Apply is an occurrence
// of fault.SiteApply on the rank's injector, which may kill the rank
// before the product and flip bits of its result after. Reliable marks
// the high-reliability operator of selective reliability (FT-GMRES's
// outer iteration): its applies count, and a rank can die in them, but
// no bit of their result is flipped.
type Faulty struct {
	Inner    Operator
	Faults   *fault.Injector
	Reliable bool
}

// Apply implements Operator.
func (f *Faulty) Apply(x, y []float64) error {
	if err := f.Faults.Enter(fault.SiteApply, -1); err != nil {
		return err
	}
	if err := f.Inner.Apply(x, y); err != nil {
		return err
	}
	if !f.Reliable {
		f.Faults.Corrupt(fault.SiteApply, y)
	}
	return nil
}

// LocalLen implements Operator.
func (f *Faulty) LocalLen() int { return f.Inner.LocalLen() }

// GlobalLen implements Operator.
func (f *Faulty) GlobalLen() int { return f.Inner.GlobalLen() }

// NormInf implements Operator: the intended operator's bound.
func (f *Faulty) NormInf() float64 { return f.Inner.NormInf() }
