package precond

import "repro/internal/fault"

// Faulty is the fault adapter on Preconditioner: every application is
// an occurrence of fault.SitePrecond on the rank's injector, which may
// kill the rank before it and flip bits of its output after — a
// preconditioner running on unreliable hardware. This is the package's
// hook into the paper's Selective Reliability architecture (§III-D):
// srp.DistFTGMRES can run a Faulty preconditioner as part of its
// low-reliability inner phase, with the reliable outer iteration
// sanitising whatever comes back.
type Faulty struct {
	Inner  Preconditioner
	Faults *fault.Injector
}

// Setup implements Preconditioner: the factorisation itself is assumed
// to run reliably (it is setup-time critical data, in the paper's
// terms); only applications are corrupted.
func (f *Faulty) Setup() error { return f.Inner.Setup() }

// Apply implements Preconditioner.
func (f *Faulty) Apply(r []float64) ([]float64, error) { return applyViaInto(f, r) }

// ApplyInto implements Preconditioner.
func (f *Faulty) ApplyInto(r, z []float64) error {
	if err := f.Faults.Enter(fault.SitePrecond, -1); err != nil {
		return err
	}
	if err := f.Inner.ApplyInto(r, z); err != nil {
		return err
	}
	f.Faults.Corrupt(fault.SitePrecond, z)
	return nil
}

// Flops implements Preconditioner.
func (f *Faulty) Flops() float64 { return f.Inner.Flops() }
