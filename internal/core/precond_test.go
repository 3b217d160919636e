package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// eventOutage returns the first subsystem-internal branch of d whose
// outage neither islands the network nor moves a bus between subsystems,
// with the perturbed decomposition.
func eventOutage(t *testing.T, d *Decomposition) *Decomposition {
	t.Helper()
	for _, s := range d.Subsystems {
		for _, br := range s.InternalBranches {
			pd, err := d.PerturbBranch(br, 0)
			if err != nil {
				continue
			}
			same := true
			for i := range d.Owner {
				same = same && d.Owner[i] == pd.Owner[i]
			}
			if same {
				return pd
			}
		}
	}
	t.Fatal("no non-islanding internal outage")
	return nil
}

// TestTrackerAutoMatchesJacobiOnDriftingStream pins the default
// preconditioner (PrecondAuto, the exact Cholesky factor on every IEEE-118
// subsystem gain) against explicit Jacobi over 100 tracked frames with
// fresh noise, a mean-reverting load drift, and one branch outage at frame
// 50, under both reuse tiers: every frame's estimate agrees to 1e-9, with
// identical Gauss–Newton iteration and gain-skip counts.
func TestTrackerAutoMatchesJacobiOnDriftingStream(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	outage := eventOutage(t, fx.dec)
	planFor := func(d *Decomposition) []meas.Measurement {
		plan := meas.FullPlan().Build(d.Net)
		return append(plan, PMUPlanFor(d, plan, 0.0005)...)
	}
	plans := map[*Decomposition][]meas.Measurement{fx.dec: planFor(fx.dec), outage: planFor(outage)}

	for _, tier := range []wls.GainReuseKind{wls.ReuseGain, wls.ReusePrecond} {
		rng := rand.New(rand.NewSource(5))
		walk := make([]float64, fx.net.N())
		dec := fx.dec
		var auto, jac *Tracker
		newTrackers := func() {
			auto = NewTracker(dec, DSEOptions{Rounds: 2, WLS: wls.Options{GainReuse: tier}})
			jac = NewTracker(dec, DSEOptions{Rounds: 2, WLS: wls.Options{GainReuse: tier, Precond: wls.PrecondJacobi}})
		}
		newTrackers()
		var skips int
		for f := 0; f < 100; f++ {
			if f == 50 {
				dec = outage
				newTrackers()
			}
			st := powerflow.State{Va: make([]float64, fx.net.N()), Vm: append([]float64(nil), fx.truth.Vm...)}
			swing := 0.01 * (1 - math.Cos(2*math.Pi*float64(f)/100))
			slack := fx.truth.Va[fx.net.SlackIndex()]
			for i, b := range fx.net.Buses {
				if b.Type == grid.PQ {
					walk[i] += 1e-3*rng.NormFloat64() - 0.2*walk[i]
				}
				st.Va[i] = fx.truth.Va[i] + swing*(fx.truth.Va[i]-slack) + walk[i]
			}
			frame, err := meas.Simulate(dec.Net, plans[dec], st, 1, int64(1000+f))
			if err != nil {
				t.Fatal(err)
			}
			ra, err := auto.Process(frame)
			if err != nil {
				t.Fatalf("%v frame %d auto: %v", tier, f, err)
			}
			rj, err := jac.Process(frame)
			if err != nil {
				t.Fatalf("%v frame %d jacobi: %v", tier, f, err)
			}
			var worst float64
			for i := range ra.State.Vm {
				worst = math.Max(worst, math.Abs(ra.State.Vm[i]-rj.State.Vm[i]))
				worst = math.Max(worst, math.Abs(ra.State.Va[i]-rj.State.Va[i]))
			}
			if worst > 1e-9 {
				t.Fatalf("%v frame %d: auto deviates %g from jacobi", tier, f, worst)
			}
			for step, p := range [][2]StepStats{{ra.Step1Stats, rj.Step1Stats}, {ra.Step2Stats, rj.Step2Stats}} {
				a, j := p[0], p[1]
				if a.Iterations != j.Iterations || a.GainSkips != j.GainSkips {
					t.Fatalf("%v frame %d step %d: auto GN %d skips %d, jacobi GN %d skips %d",
						tier, f, step+1, a.Iterations, a.GainSkips, j.Iterations, j.GainSkips)
				}
			}
			skips += ra.Step1Stats.PrecondSkips + ra.Step2Stats.PrecondSkips
		}
		if skips == 0 {
			t.Fatalf("%v: the stream never reused a factor", tier)
		}
	}
}
