package dist

import (
	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/obs"
)

// CSR is a block-row distributed sparse matrix: rank r owns the
// contiguous row range Partition.Range(r) of a square global matrix and
// the matching slab of every distributed vector. Apply performs the
// classic ghost/halo exchange — each rank ships exactly the owned
// entries its neighbours' sparsity patterns reference, then runs the
// local SpMV over an operand buffer holding [owned | ghost] values.
//
// The operand buffer is retained between calls: after an Apply it still
// holds the owned and ghost values of the last operand, which is what
// lets ApplyLocal recompute the product with zero communication (the
// SKP correction path) and lets LocalColSums-based checksums validate
// against exactly what the kernel consumed.
//
// Construction is deterministic and communication-free: every rank is
// given the same replicated global matrix (the SPMD convention of this
// codebase), and everything that follows from (matrix, rank count)
// alone — slabs, column remap, who ships what to whom — is a Layout,
// derivable once and shared. Two CSRs over the same matrix therefore
// use the identical column remap, making their products bitwise
// comparable.
type CSR struct {
	c      *comm.Comm
	lo, hi int // owned global row range
	rows   int // global dimension

	slab // this rank's share of the Layout, read-only

	xbuf    []float64 // operand buffer: [owned | ghosts], persists across Applies
	pack    []float64 // reusable pack buffer (Send copies the payload)
	normInf float64   // global infinity norm, precomputed
}

// NewCSR builds rank c.Rank()'s slab of the square global matrix a.
// Every rank must call it with the same matrix. Panics if a is not
// square or the world has more ranks than rows. Each call derives a
// whole Layout: code that builds many worlds over one matrix calls
// NewLayout once and Binds instead.
func NewCSR(c *comm.Comm, a *la.CSR) *CSR { return NewLayout(a, c.Size()).Bind(c) }

// Apply computes y = A·x for this rank's slab: halo exchange (one
// message to each neighbour whose slab references owned entries), then
// the local SpMV. Errors from the exchange — comm.ErrRankFailed on a
// survivor, comm.ErrKilled on the failed rank — propagate unchanged.
func (m *CSR) Apply(x, y []float64) error {
	nl := m.hi - m.lo
	la.CheckLen("x", x, nl)
	la.CheckLen("y", y, nl)
	copy(m.xbuf[:nl], x)
	halo, mark := m.c.SpanStart(), m.c.WaitMark()
	// Sends are buffered and never block, so posting all sends before
	// any receive cannot deadlock even when every rank applies at once.
	for _, s := range m.sends {
		buf := m.pack[:len(s.idx)]
		for k, i := range s.idx {
			buf[k] = x[i]
		}
		if err := m.c.Send(s.rank, tagCSRHalo, buf); err != nil {
			return err
		}
	}
	for _, rcv := range m.recvs {
		if _, err := m.c.RecvInto(rcv.rank, tagCSRHalo, m.xbuf[rcv.at:rcv.at+rcv.n]); err != nil {
			return err
		}
	}
	m.c.SpanEndWait(obs.PhaseHaloExchange, halo, mark)
	m.ApplyLocal(y)
	return nil
}

// ApplyLocal recomputes y = A·x over the operand buffer left by the
// last Apply, with zero communication: the owned and ghost values are
// still valid, so a detected transient fault in the local kernel is
// repaired without touching the network (the SKP correction path).
func (m *CSR) ApplyLocal(y []float64) {
	start := m.c.SpanStart()
	nl := m.hi - m.lo
	la.CheckLen("y", y, nl)
	la.SpMVRuns(m.runs, m.rowPtr, m.colIdx, m.val, m.xbuf, y)
	m.c.Compute(2 * float64(len(m.val)))
	m.c.SpanEnd(obs.PhaseSpMV, start)
}

// XBuffer returns the live operand buffer [owned | ghosts] of the last
// Apply, including one made through a wrapper such as Faulty. Checksum
// validators (skp.DistCheckedOp) read it to reproduce exactly what the
// local kernel consumed, and ApplyLocal recomputes from it.
func (m *CSR) XBuffer() []float64 { return m.xbuf }

// LocalColSums returns the column sums eᵀA of the local slab in operand
// -buffer coordinates (length len(XBuffer())). Because block-row
// checksums decompose over ranks, dot(LocalColSums, XBuffer) equals
// sum(y) for a clean local product — the zero-communication ABFT
// identity skp.DistCheckedOp validates after every product.
func (m *CSR) LocalColSums() []float64 {
	cs := make([]float64, len(m.xbuf))
	for q, j := range m.colIdx {
		cs[j] += m.val[q]
	}
	return cs
}

// LocalLen implements Operator.
func (m *CSR) LocalLen() int { return m.hi - m.lo }

// GlobalLen implements Operator.
func (m *CSR) GlobalLen() int { return m.rows }

// NormInf implements Operator: the exact global infinity norm.
func (m *CSR) NormInf() float64 { return m.normInf }

// Lo returns the first global row this rank owns.
func (m *CSR) Lo() int { return m.lo }

// Scatter returns a fresh copy of this rank's slab of a replicated
// global vector.
func (m *CSR) Scatter(global []float64) []float64 {
	la.CheckLen("global", global, m.rows)
	return la.Copy(global[m.lo:m.hi])
}

// Gather assembles the distributed vector whose local slab is local
// into a full global vector on every rank (rank-order concatenation is
// global order for a block-row layout). One Allgather.
func (m *CSR) Gather(local []float64) ([]float64, error) {
	la.CheckLen("local", local, m.hi-m.lo)
	return m.c.Allgather(local)
}
