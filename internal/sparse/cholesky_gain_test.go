package sparse_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// gainAt assembles the WLS gain G = HᵀWH of mod at its flat start.
func gainAt(mod *meas.Model) *sparse.CSR {
	return sparse.Gain(mod.Jacobian(mod.FlatVec()), mod.Weights())
}

type namedGain struct {
	name string
	g    *sparse.CSR
}

// ieeeGains returns the centralized gains of IEEE-14/30/118 and the
// Step-1 gains of the 9-subsystem IEEE-118 decomposition.
func ieeeGains(t *testing.T) []namedGain {
	t.Helper()
	var gains []namedGain
	for _, c := range []struct {
		name  string
		build func() *grid.Network
	}{{"ieee14", grid.Case14}, {"ieee30", grid.Case30}, {"ieee118", grid.Case118}} {
		name, n := c.name, c.build()
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
		if err != nil {
			t.Fatalf("%s powerflow: %v", name, err)
		}
		plan := meas.FullPlan().Build(n)
		ms, err := meas.Simulate(n, plan, pf.State, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := n.SlackIndex()
		mod, err := meas.NewModel(n, ms, ref, pf.State.Va[ref])
		if err != nil {
			t.Fatal(err)
		}
		gains = append(gains, namedGain{name, gainAt(mod)})
		if name != "ieee118" {
			continue
		}
		dec, err := core.Decompose(n, 9, core.DecomposeOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan = append(plan, core.PMUPlanFor(dec, plan, 0.0005)...)
		if ms, err = meas.Simulate(n, plan, pf.State, 0.01, 1); err != nil {
			t.Fatal(err)
		}
		for si := range dec.Subsystems {
			sp, err := dec.BuildStep1(si, ms)
			if err != nil {
				t.Fatal(err)
			}
			gains = append(gains, namedGain{fmt.Sprintf("ieee118/sub%d", si), gainAt(sp.Model)})
		}
	}
	return gains
}

func TestCholeskyMatchesDenseLUOnGains(t *testing.T) {
	for _, ng := range ieeeGains(t) {
		g := ng.g
		t.Run(ng.name, func(t *testing.T) {
			c, err := sparse.NewCholesky(g)
			if err != nil {
				t.Fatal(err)
			}
			if c.NNZ() > 2*c.LowerNNZ() {
				t.Errorf("fill: nnz(L) = %d > 2·nnz(tril G) = %d", c.NNZ(), 2*c.LowerNNZ())
			}
			b := make([]float64, g.Rows)
			for i := range b {
				b[i] = math.Sin(float64(i) + 1)
			}
			want, err := sparse.SolveDense(g.ToDense(), b)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, g.Rows)
			c.Apply(got, b)
			var diff, norm float64
			for i := range want {
				diff = math.Max(diff, math.Abs(got[i]-want[i]))
				norm = math.Max(norm, math.Abs(want[i]))
			}
			if diff > 1e-12*norm {
				t.Fatalf("n=%d: |x_chol − x_LU|∞ / |x_LU|∞ = %.3g > 1e-12", g.Rows, diff/norm)
			}
			t.Logf("n=%d nnz(L)=%d nnz(tril G)=%d fill %.2f rel diff %.2g", g.Rows, c.NNZ(), c.LowerNNZ(),
				float64(c.NNZ())/float64(c.LowerNNZ()), diff/norm)
		})
	}
}
