package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// probeReps is how many times each probe call repeats per frame; the
// frame's value is the median repetition.
const probeReps = 3

// kernelProbe times the measurement and gain kernels on one estimation
// model (the frame's largest subsystem, or the whole network for the
// centralized sweep) at the frame's state. It runs in traced passes only,
// outside the frame's own span.
type kernelProbe struct {
	mod  *meas.Model
	plan *meas.JacobianPlan
	gp   *sparse.GainPlan
	w    []float64
	h    []float64
	b    []float64
	vals []meas.Measurement
	ws   *sparse.CGWorkspace
}

func newKernelProbe(mod *meas.Model) *kernelProbe {
	plan := mod.NewJacobianPlan()
	return &kernelProbe{
		mod:  mod,
		plan: plan,
		gp:   sparse.NewGainPlan(plan.H),
		w:    mod.Weights(),
		h:    make([]float64, mod.NMeas()),
		b:    make([]float64, mod.NState()),
		ws:   sparse.NewCGWorkspace(mod.NState()),
	}
}

// timeReps returns the median duration of probeReps calls of f.
func timeReps(f func()) time.Duration {
	var d [probeReps]time.Duration
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0)
	}
	sort.Slice(d[:], func(a, b int) bool { return d[a] < d[b] })
	return d[probeReps/2]
}

// run probes the kernels at state x after the model's values were
// refreshed for frame k, recording per-call times into p.
func (kp *kernelProbe) run(p *pass, k int, x []float64) error {
	if len(x) != kp.mod.NState() {
		return fmt.Errorf("probe state length %d != %d", len(x), kp.mod.NState())
	}
	root := p.tr.begin("bench.probe", -1, k)
	defer p.tr.end(root)

	kp.vals = append(kp.vals[:0], kp.mod.Meas...)
	id := p.tr.begin("meas.UpdateValues", root, k)
	var err error
	d := timeReps(func() { err = kp.mod.UpdateValues(kp.vals) })
	p.tr.end(id)
	if err != nil {
		return err
	}
	p.sample("meas.update_us", us(d))

	id = p.tr.begin("meas.eval", root, k)
	d = timeReps(func() {
		kp.plan.Refresh(x)
		kp.plan.EvalInto(kp.h, x)
	})
	p.tr.end(id)
	p.sample("meas.eval_us", us(d))

	id = p.tr.begin("sparse.GainPlan.Refresh", root, k)
	var g *sparse.CSR
	d = timeReps(func() { g = kp.gp.Refresh(kp.plan.H, kp.w) })
	p.tr.end(id)
	p.sample("sparse.gain_refresh_us", us(d))

	// Gauss–Newton right-hand side Hᵀ W (z − h(x)) at the probed state.
	hm := kp.plan.H
	for j := range kp.b {
		kp.b[j] = 0
	}
	for i := 0; i < hm.Rows; i++ {
		wr := kp.w[i] * (kp.mod.Meas[i].Value - kp.h[i])
		for q := hm.RowPtr[i]; q < hm.RowPtr[i+1]; q++ {
			kp.b[hm.ColIdx[q]] += hm.Val[q] * wr
		}
	}
	jac, err := sparse.NewJacobi(g)
	if err != nil {
		return err
	}
	var iters int
	id = p.tr.begin("sparse.CG", root, k)
	d = timeReps(func() {
		var r sparse.CGResult
		r, err = sparse.CG(g, kp.b, sparse.CGOptions{Precond: jac, Workers: 1, Work: kp.ws})
		iters = r.Iterations
	})
	p.tr.end(id)
	if err != nil {
		return err
	}
	p.sample("sparse.cg_us_per_iter", ratio(us(d), float64(iters)))
	return nil
}
