package sparse

import (
	"fmt"
	"math"
)

// BatchPreconditioner applies z_c = M_c⁻¹·r_c for every column c of a
// k-column interleaved batch. A shared preconditioner (one M for all
// columns) satisfies it via the ApplyBatch adapters on the scalar types;
// BatchJacobi carries a distinct diagonal per column.
type BatchPreconditioner interface {
	// ApplyBatch writes M⁻¹·r into z column by column. z and r are
	// column-interleaved with width k and must not alias.
	ApplyBatch(z, r []float64, k int)
	// Name identifies the preconditioner in logs and benchmarks.
	Name() string
}

// ApplyBatch implements BatchPreconditioner: the identity copies every
// column through.
func (IdentityPreconditioner) ApplyBatch(z, r []float64, k int) { copy(z, r) }

// ApplyBatch implements BatchPreconditioner with the same inverse diagonal
// on every column — one pass over the interleaved batch.
func (p *JacobiPreconditioner) ApplyBatch(z, r []float64, k int) {
	for i, inv := range p.invDiag {
		zi := z[i*k : (i+1)*k]
		ri := r[i*k : (i+1)*k : (i+1)*k]
		for c := range zi {
			zi[c] = ri[c] * inv
		}
	}
}

// ApplyBatch implements BatchPreconditioner: the shared factor solves
// L·y = r_c then Lᵀ·z_c = y for every interleaved column at once, sharing
// one pass over the factor's index structure across the batch. Each
// column's arithmetic sequence is exactly the scalar Apply's, so a batch
// column is bitwise identical to applying the factor to that column alone.
func (p *IC0Preconditioner) ApplyBatch(z, r []float64, k int) {
	if k == 1 {
		p.Apply(z, r)
		return
	}
	// Forward solve L·y = r (y stored in z).
	for i := 0; i < p.n; i++ {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		zi := z[i*k : i*k+k : i*k+k]
		copy(zi, r[i*k:i*k+k])
		for t := lo; t < hi-1; t++ {
			v := p.val[t]
			zj := z[int(p.colIdx[t])*k:]
			zj = zj[:k:k]
			for c := range zi {
				zi[c] -= v * zj[c]
			}
		}
		d := p.val[hi-1]
		for c := range zi {
			zi[c] /= d
		}
	}
	// Backward solve Lᵀ·z = y, traversing rows in reverse and scattering.
	for i := p.n - 1; i >= 0; i-- {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		zi := z[i*k : i*k+k : i*k+k]
		d := p.val[hi-1]
		for c := range zi {
			zi[c] /= d
		}
		for t := lo; t < hi-1; t++ {
			v := p.val[t]
			zj := z[int(p.colIdx[t])*k:]
			zj = zj[:k:k]
			for c := range zi {
				zj[c] -= v * zi[c]
			}
		}
	}
}

// ApplyBatch implements BatchPreconditioner with the same inverted 2×2
// diagonal blocks on every column.
func (p *BlockJacobiPreconditioner) ApplyBatch(z, r []float64, k int) {
	for br := 0; 4*br < len(p.inv); br++ {
		i := 2 * br
		m := p.inv[4*br : 4*br+4 : 4*br+4]
		r0 := r[i*k : (i+1)*k : (i+1)*k]
		r1 := r[(i+1)*k : (i+2)*k : (i+2)*k]
		z0 := z[i*k : (i+1)*k]
		z1 := z[(i+1)*k : (i+2)*k]
		for c := range z0 {
			z0[c] = m[0]*r0[c] + m[1]*r1[c]
			z1[c] = m[2]*r0[c] + m[3]*r1[c]
		}
	}
}

// BatchJacobi is a Jacobi preconditioner with a distinct diagonal per batch
// column, stored column-interleaved like the iteration vectors. It is the
// batched analog of one JacobiPreconditioner per case: column c applies
// diag(G_base + ΔG_c)⁻¹.
type BatchJacobi struct {
	k       int
	invDiag []float64 // n·k interleaved: invDiag[i*k+c]
}

// NewBatchJacobi returns storage for an n-dimensional, k-column batched
// Jacobi preconditioner. Columns start as identity until set.
func NewBatchJacobi(n, k int) *BatchJacobi {
	if n < 1 || k < 1 {
		panic(fmt.Sprintf("sparse: NewBatchJacobi n=%d k=%d", n, k))
	}
	p := &BatchJacobi{k: k, invDiag: make([]float64, n*k)}
	for i := range p.invDiag {
		p.invDiag[i] = 1
	}
	return p
}

// K returns the batch width the preconditioner was built for.
func (p *BatchJacobi) K() int { return p.k }

// SetColumn loads column c from a raw (uninverted) diagonal of length n.
// It returns an error when an entry is zero or not finite, leaving the
// column unusable — callers should route that case to a scalar fallback.
func (p *BatchJacobi) SetColumn(c int, diag []float64) error {
	if c < 0 || c >= p.k {
		panic(fmt.Sprintf("sparse: BatchJacobi.SetColumn column %d of %d", c, p.k))
	}
	if len(diag)*p.k != len(p.invDiag) {
		return fmt.Errorf("sparse: batch-jacobi column length %d, built for %d", len(diag), len(p.invDiag)/p.k)
	}
	for i, v := range diag {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sparse: batch-jacobi: unusable diagonal entry %g at %d", v, i)
		}
		p.invDiag[i*p.k+c] = 1 / v
	}
	return nil
}

// gatherColumns writes the preconditioner restricted to the given source
// lanes into dst (new width len(srcLanes)), reusing dst's storage when it
// is large enough. dst may be p itself (in-place narrowing): srcLanes is
// ascending, so every destination index i·ka+c2 stays at or before its
// source index i·k+l and no unread entry is clobbered. BatchCG uses this
// to narrow a per-column Jacobi when it compacts drained batch lanes.
func (p *BatchJacobi) gatherColumns(dst *BatchJacobi, srcLanes []int) {
	ka := len(srcLanes)
	src, srcK := p.invDiag, p.k
	n := len(src) / srcK
	need := n * ka
	if cap(dst.invDiag) < need {
		dst.invDiag = make([]float64, need)
	}
	out := dst.invDiag[:need]
	for i := 0; i < n; i++ {
		srcOff, dstOff := i*srcK, i*ka
		for c2, l := range srcLanes {
			out[dstOff+c2] = src[srcOff+l]
		}
	}
	dst.invDiag = out
	dst.k = ka
}

// ApplyBatch implements BatchPreconditioner.
func (p *BatchJacobi) ApplyBatch(z, r []float64, k int) {
	if k != p.k {
		panic(fmt.Sprintf("sparse: BatchJacobi built for k=%d applied at k=%d", p.k, k))
	}
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
}

// Name implements BatchPreconditioner.
func (p *BatchJacobi) Name() string { return "batch-jacobi" }
