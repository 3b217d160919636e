package wls

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
)

var autoCases = []struct {
	name  string
	build func() *grid.Network
}{{"ieee14", grid.Case14}, {"ieee30", grid.Case30}, {"ieee118", grid.Case118}}

// TestPrecondAutoMatchesJacobi pins the default preconditioner against the
// explicit Jacobi path: the estimates agree to 1e-9 with the same
// Gauss–Newton iteration count, and Auto resolves to the exact factor,
// so every gain solve takes one CG iteration.
func TestPrecondAutoMatchesJacobi(t *testing.T) {
	for _, c := range autoCases {
		t.Run(c.name, func(t *testing.T) {
			mod := engineTestModel(t, c.build, 0.01, 3)
			jac, err := Estimate(mod, Options{Precond: PrecondJacobi})
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(mod)
			auto, err := eng.Estimate(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(auto.X, jac.X); d > 1e-9 {
				t.Fatalf("auto and jacobi estimates differ by %g", d)
			}
			if auto.Iterations != jac.Iterations {
				t.Fatalf("GN iterations: auto %d, jacobi %d", auto.Iterations, jac.Iterations)
			}
			if got := eng.resolvePrecond(Options{}); got != precondCholesky {
				t.Fatalf("auto resolved to %v, want cholesky", got)
			}
			if auto.CGIterations != auto.Iterations {
				t.Fatalf("auto: %d CG iterations over %d GN iterations, want one per solve",
					auto.CGIterations, auto.Iterations)
			}
			t.Logf("CG iterations: auto %d, jacobi %d", auto.CGIterations, jac.CGIterations)
		})
	}
}

// TestPrecondAutoDefersToJacobi: where the factor cannot run — the blocked
// layout, a fill-reducing ordering, a direct solver — Auto is exactly the
// explicit Jacobi configuration.
func TestPrecondAutoDefersToJacobi(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 0.01, 5)
	for _, opts := range []Options{
		{Format: FormatBSR},
		{Ordering: OrderRCM},
		{Ordering: OrderMinDegree},
		{Solver: Dense},
	} {
		auto, err := Estimate(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		jopts := opts
		jopts.Precond = PrecondJacobi
		jac, err := Estimate(mod, jopts)
		if err != nil {
			t.Fatal(err)
		}
		if auto.CGIterations != jac.CGIterations || maxAbsDiff(auto.X, jac.X) != 0 {
			t.Fatalf("%+v: auto (%d CG) differs from jacobi (%d CG) by %g",
				opts, auto.CGIterations, jac.CGIterations, maxAbsDiff(auto.X, jac.X))
		}
	}
	if PrecondAuto != (Options{}).Precond || PrecondAuto.String() != "auto" {
		t.Fatal("PrecondAuto is not the zero value")
	}
}

// TestPrecondAutoReuseTiers runs the drift-gated tiers on the factor over
// a drifting frame stream: both tiers land where the Jacobi path does, with
// the same Gauss–Newton iteration counts, and under the lagged-gain tier
// every solve on a stale gain uses that gain's own factor, so it takes one
// CG iteration.
func TestPrecondAutoReuseTiers(t *testing.T) {
	mods := driftedModels(t, grid.Case118, 12)
	for _, tier := range []GainReuseKind{ReuseGain, ReusePrecond} {
		auto, jac := NewEngine(mods[0]), NewEngine(mods[0])
		var xa, xj []float64
		skips := 0
		for f, mod := range mods {
			if err := auto.Rebind(mod); err != nil {
				t.Fatal(err)
			}
			if err := jac.Rebind(mod); err != nil {
				t.Fatal(err)
			}
			ra, err := auto.Estimate(Options{GainReuse: tier, X0: xa, X0Gate: WarmStartGate})
			if err != nil {
				t.Fatal(err)
			}
			rj, err := jac.Estimate(Options{GainReuse: tier, Precond: PrecondJacobi, X0: xj, X0Gate: WarmStartGate})
			if err != nil {
				t.Fatal(err)
			}
			xa, xj = ra.X, rj.X
			if d := maxAbsDiff(ra.X, rj.X); d > 1e-9 {
				t.Fatalf("%v frame %d: estimates differ by %g", tier, f, d)
			}
			// The skip counts are not compared here: on a converged iterate
			// the residual-decrease guard compares J to 1e-12 relative, which
			// the two paths' CG roundoff can tip either way on this coarse
			// centralized stream (the tracked-stream test in core pins them).
			if ra.Iterations != rj.Iterations {
				t.Fatalf("%v frame %d: GN iterations auto %d, jacobi %d", tier, f, ra.Iterations, rj.Iterations)
			}
			if tier == ReuseGain && ra.CGIterations != ra.Iterations+ra.ReuseFallbacks {
				t.Fatalf("frame %d: %d CG iterations over %d GN iterations (%d fallbacks)",
					f, ra.CGIterations, ra.Iterations, ra.ReuseFallbacks)
			}
			skips += ra.PrecondSkips
		}
		if skips == 0 {
			t.Fatalf("%v: the stream never reused a factor", tier)
		}
	}
}

// driftedModels simulates frames of IEEE metering on a truth that random-
// walks a few milliradians per frame, with fresh noise every frame. All
// models share one structure, so an engine rebinds across them.
func driftedModels(t *testing.T, build func() *grid.Network, frames int) []*meas.Model {
	t.Helper()
	n := build()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	st := pf.State.Clone()
	rng := rand.New(rand.NewSource(1))
	plan := meas.FullPlan().Build(n)
	ref := n.SlackIndex()
	mods := make([]*meas.Model, frames)
	for f := range mods {
		for i, b := range n.Buses {
			if b.Type == grid.PQ {
				st.Va[i] += 1e-3 * rng.NormFloat64()
				st.Vm[i] += 1e-4 * rng.NormFloat64()
			}
		}
		ms, err := meas.Simulate(n, plan, st, 0.01, int64(100+f))
		if err != nil {
			t.Fatal(err)
		}
		if mods[f], err = meas.NewModel(n, ms, ref, st.Va[ref]); err != nil {
			t.Fatal(err)
		}
	}
	return mods
}

// TestBatchEngineSupportsAuto: the batched sweep serves the default
// options, treating Auto as Jacobi.
func TestBatchEngineSupportsAuto(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 0.01, 7)
	if !NewBatchEngine(NewEngine(mod)).Supported(Options{}) {
		t.Fatal("batched path rejects the default options")
	}
}
