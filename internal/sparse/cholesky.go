package sparse

import (
	"fmt"
	"slices"
)

// Cholesky is the exact sparse Cholesky factorization P·A·Pᵀ = L·Lᵀ of a
// symmetric positive-definite matrix, used as a PCG preconditioner: with
// the exact factor CG converges in one iteration on the matrix it was
// refreshed from, and in a few on a nearby one (a lagged factor).
//
// The work splits into a symbolic half, done once per sparsity pattern by
// AnalyzeCholesky — a minimum-degree ordering, the elimination tree and the
// complete fill pattern of L, and a slot map from every entry of A's
// natural-order lower triangle into the permuted factor — and a numeric
// half, Refresh, which zeroes the factor, scatters A through the slot map
// and runs the IC(0) IKJ kernel over the fill pattern. IC(0) on the
// complete fill pattern drops nothing, so it is the exact factor; the
// kernel's Manteuffel diagonal-shift repair still engages when a pivot
// breaks down on a numerically indefinite matrix. Refresh and Apply
// allocate nothing.
type Cholesky struct {
	lowerFactor
	// perm is the symmetric fill-reducing ordering (perm[new] = old) and
	// inv its inverse.
	perm, inv []int
	// slot maps the s-th entry of A's natural-order lower triangle (row
	// by row, ascending columns, diagonal included) to its index in val.
	slot []int32
	// y is the permuted-space scratch vector of Apply.
	y []float64
}

// AnalyzeCholesky runs the symbolic analysis of the symmetric matrix a:
// only a's sparsity pattern is read, so the returned factor holds no
// numeric values until Refresh. a must be square, structurally symmetric
// and store every diagonal entry.
func AnalyzeCholesky(a *CSR) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: Cholesky requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	perm := MinDegree(a)
	inv := InversePerm(perm)

	// Strictly-lower pattern of the permuted matrix, one adjacency list per
	// permuted row (natural row i's entries c < i land in row max(inv)).
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := a.ColIdx[k]; c < i {
				ptr[max(inv[i], inv[c])+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := a.ColIdx[k]; c < i {
				r := max(inv[i], inv[c])
				adj[next[r]] = min(inv[i], inv[c])
				next[r]++
			}
		}
	}

	// Elimination tree (Liu's algorithm with path compression).
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i], ancestor[i] = -1, -1
		for _, j := range adj[ptr[i]:ptr[i+1]] {
			for j != -1 && j < i {
				up := ancestor[j]
				ancestor[j] = i
				if up == -1 {
					parent[j] = i
				}
				j = up
			}
		}
	}

	// Row i of L is the union of the etree paths from each A(i,j), j < i,
	// up to i; the diagonal closes the sorted row. A counting pass sizes
	// the factor exactly, since it lives as long as the gain pattern.
	c := &Cholesky{lowerFactor: lowerFactor{n: n}, perm: perm, inv: inv}
	mark := make([]int, n)
	reach := func(i int, emit func(j int)) {
		mark[i] = i
		for _, j := range adj[ptr[i]:ptr[i+1]] {
			for j != -1 && mark[j] != i {
				emit(j)
				mark[j] = i
				j = parent[j]
			}
		}
	}
	for i := range mark {
		mark[i] = -1
	}
	c.rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		cnt := 1
		reach(i, func(int) { cnt++ })
		c.rowPtr[i+1] = c.rowPtr[i] + cnt
	}
	for i := range mark {
		mark[i] = -1
	}
	c.colIdx = make([]int32, c.rowPtr[n])
	for i := 0; i < n; i++ {
		row := c.colIdx[c.rowPtr[i]:c.rowPtr[i+1]]
		fill := 0
		reach(i, func(j int) { row[fill] = int32(j); fill++ })
		slices.Sort(row[:fill])
		row[fill] = int32(i)
	}
	c.val = make([]float64, len(c.colIdx))
	if err := c.initDiag("Cholesky"); err != nil {
		return nil, err
	}

	// Slot map: each natural lower-triangle entry's position in L.
	c.slot = make([]int32, 0, n+ptr[n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			col := a.ColIdx[k]
			if col > i {
				continue
			}
			r, cc := max(inv[i], inv[col]), min(inv[i], inv[col])
			row := c.colIdx[c.rowPtr[r]:c.rowPtr[r+1]]
			p, ok := slices.BinarySearch(row, int32(cc))
			if !ok {
				return nil, fmt.Errorf("sparse: Cholesky: entry (%d,%d) outside the fill pattern (matrix not structurally symmetric?)", i, col)
			}
			c.slot = append(c.slot, int32(c.rowPtr[r]+p))
		}
	}
	if len(c.slot) != n+ptr[n] {
		return nil, fmt.Errorf("sparse: Cholesky: missing diagonal (%d lower entries, %d off-diagonal)", len(c.slot), ptr[n])
	}
	c.y = make([]float64, n)
	return c, nil
}

// NewCholesky analyzes a's pattern and factors its values.
func NewCholesky(a *CSR) (*Cholesky, error) {
	c, err := AnalyzeCholesky(a)
	if err != nil {
		return nil, err
	}
	if err := c.Refresh(a); err != nil {
		return nil, err
	}
	return c, nil
}

// NNZ returns the stored entries of the factor L, diagonal included.
func (c *Cholesky) NNZ() int { return len(c.val) }

// LowerNNZ returns the stored entries of the analyzed matrix's lower
// triangle, diagonal included: NNZ()/LowerNNZ() is the fill ratio.
func (c *Cholesky) LowerNNZ() int { return len(c.slot) }

// Refresh implements Refresher: it refactors in place from a, which must
// have the sparsity pattern the factor was analyzed for (a changed pattern
// is rejected). A non-positive pivot is repaired by the diagonal shift;
// a matrix the shift cannot repair, or with non-finite values, returns
// ErrNotSPD.
func (c *Cholesky) Refresh(a *CSR) error {
	if a.Rows != c.n || a.Cols != c.n {
		return fmt.Errorf("sparse: Cholesky refresh with %dx%d matrix, built for %d", a.Rows, a.Cols, c.n)
	}
	if err := c.load(a); err != nil {
		return err
	}
	return c.factorize(func() { c.load(a) })
}

// load zeroes the factor and scatters a's lower triangle through the slot
// map, checking every entry against the analyzed pattern.
func (c *Cholesky) load(a *CSR) error {
	clear(c.val)
	s := 0
	for i := 0; i < c.n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			col := a.ColIdx[k]
			if col > i {
				continue
			}
			if s == len(c.slot) {
				return fmt.Errorf("sparse: Cholesky refresh with changed sparsity pattern at row %d", i)
			}
			t := int(c.slot[s])
			r, cc := max(c.inv[i], c.inv[col]), min(c.inv[i], c.inv[col])
			if t < c.rowPtr[r] || t >= c.rowPtr[r+1] || int(c.colIdx[t]) != cc {
				return fmt.Errorf("sparse: Cholesky refresh with changed sparsity pattern at row %d", i)
			}
			c.val[t] = a.Val[k]
			s++
		}
	}
	if s != len(c.slot) {
		return fmt.Errorf("sparse: Cholesky refresh with changed sparsity pattern (%d != %d entries)", s, len(c.slot))
	}
	return nil
}

// Apply implements Preconditioner: z = Pᵀ·(L·Lᵀ)⁻¹·P·r.
func (c *Cholesky) Apply(z, r []float64) {
	y := c.y
	for i, old := range c.perm {
		y[i] = r[old]
	}
	c.solve(y, y)
	for i, old := range c.perm {
		z[old] = y[i]
	}
}

// Name implements Preconditioner.
func (c *Cholesky) Name() string { return "cholesky" }
