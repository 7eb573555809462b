package precond

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/obs"
)

// Chebyshev is the fixed-degree Chebyshev polynomial preconditioner for
// SPD operators with known spectral bounds: z = p_k(A)·r where p_k
// approximates A⁻¹ over [LambdaMin, LambdaMax]. Each application runs k
// steps of the Chebyshev semi-iteration from a zero guess — k halo
// exchanges, zero global reductions — which makes it the
// latency-tolerant member of this package: on a noisy machine its cost
// scales like the SpMV, not like an all-reduce. Because p_k(A) is a
// polynomial in A it is symmetric positive definite whenever the bounds
// enclose the spectrum, so it is safe inside DistPCG.
type Chebyshev struct {
	c  *comm.Comm
	a  dist.Operator
	lo float64 // LambdaMin
	hi float64 // LambdaMax
	k  int     // polynomial degree (semi-iteration step count)

	r, d, ad []float64 // scratch, carved by Setup
	kern     kernel    // the opening pass and each step's vector work, as an Offload job
	// What kern runs next: the opening pass, or one chebyshevStep with
	// these coefficients.
	opening      bool
	coefD, coefR float64
	more         bool
}

// NewChebyshev builds a degree-k Chebyshev preconditioner over the
// distributed operator a, whose SPD spectrum must lie in [lmin, lmax].
// Call Setup before the first use.
func NewChebyshev(c *comm.Comm, a dist.Operator, lmin, lmax float64, degree int) *Chebyshev {
	ch := &Chebyshev{c: c, a: a, lo: lmin, hi: lmax, k: degree}
	ch.kern.p = ch
	return ch
}

// Setup implements Preconditioner: validates the spectral bounds and
// carves the three scratch vectors, so ApplyInto is allocation-free.
func (ch *Chebyshev) Setup() error {
	if ch.lo <= 0 || ch.hi <= ch.lo {
		return fmt.Errorf("precond: Chebyshev needs 0 < LambdaMin < LambdaMax, got [%g, %g]", ch.lo, ch.hi)
	}
	if ch.k < 1 {
		return fmt.Errorf("precond: Chebyshev degree %d < 1", ch.k)
	}
	n := ch.a.LocalLen()
	if ch.r == nil {
		ch.r = make([]float64, n)
		ch.d = make([]float64, n)
		ch.ad = make([]float64, n)
	}
	return nil
}

// ApplyInto implements Preconditioner: z = p_k(A)·r via k steps of the
// Chebyshev semi-iteration on A·z = r from z = 0 (Saad, Iterative
// Methods, alg. 12.1, without convergence checks — the degree is the
// whole contract). Collective: each step is one operator application.
func (ch *Chebyshev) ApplyInto(r, z []float64) error {
	if ch.r == nil {
		return ErrNotSetup
	}
	start := ch.c.SpanStart()
	n := ch.a.LocalLen()
	la.CheckLen("r", r, n)
	la.CheckLen("z", z, n)

	theta := (ch.hi + ch.lo) / 2
	delta := (ch.hi - ch.lo) / 2
	sigma1 := theta / delta

	rho := 1 / sigma1
	ch.opening = true
	ch.kern.offload(ch.c, n, r, z)
	ch.opening = false
	ch.c.Compute(float64(n))
	for step := 0; step < ch.k; step++ {
		ch.c.Compute(la.FlopsAxpy(n))
		if err := ch.a.Apply(ch.d, ch.ad); err != nil {
			return err
		}
		rhoNew := 1 / (2*sigma1 - rho)
		ch.coefD, ch.coefR, ch.more = rhoNew*rho, 2*rhoNew/delta, step+1 < ch.k
		ch.kern.offload(ch.c, n, r, z)
		ch.c.Compute(la.FlopsAxpy(n))
		ch.c.Compute(3 * float64(n))
		rho = rhoNew
	}
	ch.c.SpanEnd(obs.PhasePrecondApply, start)
	return nil
}

// slab is kern's work. The opening pass sets res = r, d = res/θ and
// z = 0, then runs step 0's z += d; otherwise it is one chebyshevStep on
// z.
func (ch *Chebyshev) slab(r, z []float64) {
	if !ch.opening {
		chebyshevStep(ch.ad, ch.r, ch.d, z, ch.coefD, ch.coefR, ch.more)
		return
	}
	theta := (ch.hi + ch.lo) / 2
	res, d := ch.r, ch.d
	copy(res, r) // residual of the zero guess
	for i := range d {
		d[i] = res[i] / theta
		z[i] = 0
	}
	la.Axpy(1, d, z) // step 0's z += d; later steps' ride in the fused loop
}

// chebyshevStep is one semi-iteration's vector work in a single trip:
// res −= A·d (ad holds the product), d = coefD·d + coefR·res over the
// updated residual and, when another step follows, that step's z += d.
// Each element sees the operations of the three separate loops in their
// order, so the result is bitwise theirs; ApplyInto still charges each
// loop on its own (a charge draws from the noise stream).
func chebyshevStep(ad, res, d, z []float64, coefD, coefR float64, more bool) {
	ad, res, z = ad[:len(d)], res[:len(d)], z[:len(d)]
	for i, di := range d {
		ri := res[i] - ad[i]
		res[i] = ri
		di = coefD*di + coefR*ri
		d[i] = di
		if more {
			z[i] += di
		}
	}
}

// Flops implements Preconditioner: the vector-recurrence work charged
// directly by ApplyInto (the k operator applications meter themselves
// through the operator's own cost accounting).
func (ch *Chebyshev) Flops() float64 {
	n := float64(ch.a.LocalLen())
	return n + float64(ch.k)*(la.FlopsAxpy(int(n))*2+3*n)
}
