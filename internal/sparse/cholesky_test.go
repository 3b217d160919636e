package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// denseOf expands a CSR matrix into a row-major dense n×n slice.
func denseOf(a *CSR) []float64 {
	d := make([]float64, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i*a.Cols+a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}

// arrowSPD is an arrowhead matrix whose hub is row 0: natural-order
// elimination fills it completely, a minimum-degree order not at all.
func arrowSPD(n int) *CSR {
	coo := NewCOO(n, n)
	coo.Add(0, 0, float64(2*n))
	for i := 1; i < n; i++ {
		coo.Add(i, i, 4)
		coo.Add(0, i, 1)
		coo.Add(i, 0, 1)
	}
	return coo.ToCSR()
}

func TestCholeskyReconstructsPermutedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, a := range []*CSR{randomSPD(rng, 40), arrowSPD(30)} {
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		ad := denseOf(a)
		l := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
				l[i*n+int(c.colIdx[k])] = c.val[k]
			}
		}
		worst, scale := 0.0, 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += l[i*n+k] * l[j*n+k]
				}
				want := ad[c.perm[i]*n+c.perm[j]]
				worst = math.Max(worst, math.Abs(s-want))
				scale = math.Max(scale, math.Abs(want))
			}
		}
		if worst > 1e-12*scale {
			t.Fatalf("n=%d: |L·Lᵀ − P·A·Pᵀ| = %g (scale %g)", n, worst, scale)
		}
	}
}

func TestCholeskyMinDegreeAvoidsArrowFill(t *testing.T) {
	a := arrowSPD(50)
	c, err := AnalyzeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != c.LowerNNZ() {
		t.Fatalf("arrow factor has %d entries, lower triangle %d: ordering left fill", c.NNZ(), c.LowerNNZ())
	}
}

func TestCholeskyApplyInvertsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 60)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, x)
	z := make([]float64, a.Rows)
	c.Apply(z, b)
	for i := range x {
		if math.Abs(z[i]-x[i]) > 1e-12*(1+math.Abs(x[i])) {
			t.Fatalf("z[%d] = %v, want %v", i, z[i], x[i])
		}
	}
	// With the exact factor as preconditioner, CG needs one iteration.
	res, err := CG(a, b, CGOptions{Tol: 1e-10, Precond: c, Workers: 1})
	if err != nil || res.Iterations != 1 {
		t.Fatalf("CG with exact factor: %d iterations, err %v", res.Iterations, err)
	}
}

func TestCholeskyRefreshApplyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 80)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.Refresh(a); err != nil {
			t.Fatal(err)
		}
		c.Apply(z, r)
	}); allocs != 0 {
		t.Fatalf("Refresh+Apply allocated %v times per run, want 0", allocs)
	}
}

func TestCholeskyRejectsNaNAndIndefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 30)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}

	// A NaN off-diagonal pair (the gain is symmetric) and a NaN diagonal.
	for _, off := range []bool{true, false} {
		nan := a.Clone()
		for i := 0; i < nan.Rows; i++ {
			for k := nan.RowPtr[i]; k < nan.RowPtr[i+1]; k++ {
				if j := nan.ColIdx[k]; (j != i) == off && (i == 7 || j == 7) {
					nan.Val[k] = math.NaN()
				}
			}
		}
		if err := c.Refresh(nan); err == nil {
			t.Fatalf("NaN gain (off-diagonal %v) factored without error", off)
		}
	}
	inf := a.Clone()
	inf.Val[0] = math.Inf(1)
	if err := c.Refresh(inf); err == nil {
		t.Fatal("infinite gain factored without error")
	}

	// A negative diagonal cannot be repaired by the diagonal shift.
	neg := a.Clone()
	for k := neg.RowPtr[3]; k < neg.RowPtr[4]; k++ {
		if neg.ColIdx[k] == 3 {
			neg.Val[k] = -neg.Val[k]
		}
	}
	if err := c.Refresh(neg); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("negative-diagonal gain: err = %v, want ErrNotSPD", err)
	}
	// Off-diagonals far above the diagonal stay indefinite under every
	// shift the repair tries.
	ind := NewCOO(2, 2)
	ind.Add(0, 0, 1)
	ind.Add(1, 1, 1)
	ind.Add(0, 1, 500)
	ind.Add(1, 0, 500)
	if _, err := NewCholesky(ind.ToCSR()); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite gain: err = %v, want ErrNotSPD", err)
	}

	// The factor stays usable after the failures.
	if err := c.Refresh(a); err != nil {
		t.Fatalf("refresh after failures: %v", err)
	}
}

func TestCholeskyRejectsPatternChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 30)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Same entry count: one off-diagonal pair moves to an absent position.
	var from, to [2]int
	found := false
	for i := 1; i < a.Rows && !found; i++ {
		for j := 0; j < i && !found; j++ {
			if a.At(i, j) == 0 {
				to, found = [2]int{i, j}, true
			}
		}
	}
	for k := a.RowPtr[a.Rows-1]; k < a.RowPtr[a.Rows]; k++ {
		if j := a.ColIdx[k]; j != a.Rows-1 && [2]int{a.Rows - 1, j} != to {
			from = [2]int{a.Rows - 1, j}
			break
		}
	}
	if !found || from == [2]int{} {
		t.Fatal("test matrix has no movable pair")
	}
	coo := NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if [2]int{i, j} != from && [2]int{j, i} != from {
				coo.Add(i, j, a.Val[k])
			}
		}
	}
	coo.Add(to[0], to[1], 0.5)
	coo.Add(to[1], to[0], 0.5)
	moved := coo.ToCSR()
	if moved.NNZ() != a.NNZ() {
		t.Fatalf("moved pattern has %d entries, want %d", moved.NNZ(), a.NNZ())
	}
	if err := c.Refresh(moved); err == nil {
		t.Fatal("refresh with a moved entry accepted")
	}
	small := arrowSPD(30)
	if err := c.Refresh(small); err == nil {
		t.Fatal("refresh with a different pattern of the same size accepted")
	}
	if err := c.Refresh(randomSPD(rng, 31)); err == nil {
		t.Fatal("refresh with a different dimension accepted")
	}
	if err := c.Refresh(a); err != nil {
		t.Fatalf("refresh on the analyzed pattern: %v", err)
	}
}
