package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/contingency"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// Correctness tolerances. A tracked or distributed frame fails when any
// bus is further from the generator's truth than truthTolVa (rad) or
// truthTolVm (pu). A sampled distributed frame fails when it differs from
// the centralized estimate of the same frame by more than distTolVa /
// distTolVm; a sampled re-screen case fails when its state differs from a
// cold scalar pool's by more than screenTol, or its violation list
// differs at all.
const (
	truthTolVa  = 0.03
	truthTolVm  = 0.01
	distTolVa   = 0.01
	distTolVm   = 0.005
	screenTol   = 1e-4
	sampleEvery = 20 // dist-118-tcp frames between centralized checks
	sampleCases = 4  // re-screen cases checked per sweep
)

// workload describes one named workload.
type workload struct {
	name string
	// rate is the nominal frame rate (1/s) on a 2-vCPU Intel Xeon VM: a run of
	// S seconds processes round(S·rate) timed frames, a fixed length per
	// --seconds, so every count repeats exactly for a seed.
	rate float64
	// minFrames keeps enough frames for a tail percentile.
	minFrames int
	// tailPct, when set, fixes the frame_tail_ms percentile; otherwise it is
	// the highest whole percentile with at least 10 frames beyond it.
	// dist-118-tcp has no deterministic slow frames, and its slowest 1 % are
	// loopback and scheduler stalls whose p99 moved by 25-50 % between
	// identical runs on a 2-vCPU VM, so its tail is p90.
	tailPct int
	run     func(cfg config, traced bool) (*pass, error)
}

var workloads = []workload{
	{name: "track-118", rate: 150, minFrames: 200, run: runTrack118},
	{name: "dist-118-tcp", rate: 75, minFrames: 100, tailPct: 90, run: runDist118},
	{name: "screen-118", rate: 1.6, minFrames: 36, run: runScreen118},
	{name: "track-wecc12", rate: 4, minFrames: 40, run: runTrackWECC},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// frames returns the timed-frame count of a run.
func (w workload) frames(seconds int) int {
	n := int(math.Round(float64(seconds) * w.rate))
	if n < w.minFrames {
		n = w.minFrames
	}
	return n
}

// tail returns the frame_tail_ms percentile of the latencies and its value.
func (w workload) tail(lat []float64) (int, float64) {
	if w.tailPct > 0 {
		return w.tailPct, percentile(lat, w.tailPct)
	}
	return tailPercentile(lat, 10)
}

// checkTruth verifies one estimated state against the frame's truth and
// records its error.
func checkTruth(p *pass, st powerflow.State, in *inputs, k int) error {
	if !finiteState(st) {
		return errors.New("non-finite state")
	}
	vaRMS, vmRMS, vaMax, vmMax := rmse(st, in.frames[k].truthVa, in.frames[k].truthVm)
	p.noteRMS(vaRMS, vmRMS)
	if vaMax > truthTolVa || vmMax > truthTolVm {
		return fmt.Errorf("off truth: max |ΔVa| %.4g rad, max |ΔVm| %.4g pu", vaMax, vmMax)
	}
	return nil
}

// noteResults folds per-subsystem estimator results into the pass counts
// and checks convergence.
func noteResults(p *pass, rs ...[]*wls.Result) error {
	var j, dof float64
	for _, step := range rs {
		for si, r := range step {
			if r == nil {
				return fmt.Errorf("subsystem %d: no result", si)
			}
			if !r.Converged {
				return fmt.Errorf("subsystem %d: not converged", si)
			}
			p.add("gn", float64(r.Iterations))
			p.add("cg", float64(r.CGIterations))
			p.add("gain_refresh", float64(r.GainRefreshes))
			p.add("gain_skip", float64(r.GainSkips))
			p.add("precond_skip", float64(r.PrecondSkips))
			p.add("reuse_fallback", float64(r.ReuseFallbacks))
		}
	}
	for _, r := range rs[len(rs)-1] {
		j += r.ObjectiveJ
		dof += float64(len(r.Residuals) - len(r.X))
	}
	p.sample("j_ratio", ratio(j, dof))
	return nil
}

// largestSubsystem returns the index of the subsystem with most buses.
func largestSubsystem(d *core.Decomposition) int {
	best := 0
	for si, s := range d.Subsystems {
		if len(s.Buses) > len(d.Subsystems[best].Buses) {
			best = si
		}
	}
	return best
}

// subsystemProbe is a kernel probe on a decomposition's largest subsystem:
// its Step-1 subproblem, value-refreshed every frame.
type subsystemProbe struct {
	dec *core.Decomposition
	si  int
	sp  *core.Subproblem
	kp  *kernelProbe
}

func (sp *subsystemProbe) run(p *pass, d *core.Decomposition, k int, frame []meas.Measurement, step1 []*wls.Result) error {
	if sp.dec != d {
		sp.dec, sp.si = d, largestSubsystem(d)
		var err error
		if sp.sp, err = d.BuildStep1(sp.si, frame); err != nil {
			return err
		}
		sp.kp = newKernelProbe(sp.sp.Model)
	}
	if err := sp.sp.UpdateMeasurements(frame); err != nil {
		return err
	}
	return sp.kp.run(p, k, step1[sp.si].X)
}

// ---------------------------------------------------------------- tracking

func runTrack118(cfg config, traced bool) (*pass, error) {
	n, truth0, dec, err := ieee118()
	if err != nil {
		return nil, err
	}
	in, err := generate(n, truth0, dec, cfg.frames+1, true, cfg.seed)
	if err != nil {
		return nil, err
	}
	decompose := func() (*core.Decomposition, error) {
		return core.Decompose(n, 9, core.DecomposeOptions{Seed: decomposeSeed})
	}
	return runTrack(in, decompose, traced)
}

func runTrackWECC(cfg config, traced bool) (*pass, error) {
	n, truth0, dec, err := wecc12()
	if err != nil {
		return nil, err
	}
	in, err := generate(n, truth0, dec, cfg.frames+1, false, cfg.seed)
	if err != nil {
		return nil, err
	}
	decompose := func() (*core.Decomposition, error) {
		return core.DecomposeWithParts(n, 12, grid.AreaParts(n), 1)
	}
	return runTrack(in, decompose, traced)
}

// runTrack drives core.Tracker over the frame stream. A topology event is
// handled as an operator would: PerturbBranch and a new Tracker on an
// outage, a new Tracker on the base decomposition on restore.
func runTrack(in *inputs, decompose func() (*core.Decomposition, error), traced bool) (*pass, error) {
	ctx := context.Background()
	p := newPass(traced)
	opts := core.DSEOptions{Rounds: 2}
	var bufs [2][]meas.Measurement
	var base *core.Decomposition
	var trk *core.Tracker
	err := p.setUp(traced, func() error {
		var err error
		if base, err = decompose(); err != nil {
			return err
		}
		trk = core.NewTracker(base, opts)
		res, err := trk.Step(ctx, in.measurements(0, bufs[0]))
		if err != nil {
			return err
		}
		return noteResults(newPass(false), res.Step1, res.Step2)
	})
	if err != nil {
		return nil, err
	}
	cur := base
	var probe subsystemProbe
	p.loop(1, len(in.frames), func(k int) (time.Duration, error) {
		frame := in.measurements(k, bufs[k%2])
		bufs[k%2] = frame
		event := in.frames[k].topo != in.frames[k-1].topo
		root := p.tr.begin("bench.frame", -1, k)
		t0 := time.Now()
		parent := root
		if event {
			parent = p.tr.begin("core.event", root, k)
			if out := in.topos[in.frames[k].topo].outage; out >= 0 {
				id := p.tr.begin("core.PerturbBranch", parent, k)
				pdec, err := base.PerturbBranch(out, 0)
				p.tr.end(id)
				if err != nil {
					p.tr.end(parent)
					p.tr.end(root)
					return time.Since(t0), err
				}
				cur = pdec
			} else {
				cur = base
			}
			trk = core.NewTracker(cur, opts)
		}
		builds := trk.SkeletonBuilds()
		id := p.tr.begin("core.Tracker.Step", parent, k)
		res, err := trk.Step(ctx, frame)
		p.tr.end(id)
		lat := time.Since(t0)
		if event {
			p.tr.end(parent)
			p.sample("event_ms", ms(lat))
		}
		p.tr.end(root)
		if err != nil {
			return lat, err
		}
		p.tr.phases(id, k, []string{"core.step1", "core.step2"}, []time.Duration{res.Step1Stats.Duration, res.Step2Stats.Duration})
		p.sample("step1_ms", ms(res.Step1Stats.Duration))
		p.sample("step2_ms", ms(res.Step2Stats.Duration))
		p.add("skeleton", float64(trk.SkeletonBuilds()-builds))
		p.add("exch_bytes", float64(res.ExchangeBytes))
		p.add("exch_msgs", float64(res.ExchangeMessages))
		if err := noteResults(p, res.Step1, res.Step2); err != nil {
			return lat, err
		}
		if err := checkTruth(p, res.State, in, k); err != nil {
			return lat, err
		}
		if traced {
			if err := probe.run(p, cur, k, frame, res.Step1); err != nil {
				return lat, fmt.Errorf("kernel probe: %w", err)
			}
		}
		return lat, nil
	})
	return p, nil
}

// ------------------------------------------------------------ distributed

// distPhases names RunDistributed's reported phases in execution order.
var distPhases = []string{"partition.map", "medici.acquire", "core.step1", "partition.remap", "cluster.redistribute", "medici.exchange", "core.step2", "core.aggregate"}

func runDist118(cfg config, traced bool) (*pass, error) {
	ctx := context.Background()
	n, truth0, dec0, err := ieee118()
	if err != nil {
		return nil, err
	}
	in, err := generate(n, truth0, dec0, cfg.frames+1, false, cfg.seed)
	if err != nil {
		return nil, err
	}
	p := newPass(traced)
	var bufs [2][]meas.Measurement
	var dec *core.Decomposition
	var cache *core.DSECache
	var warm [][]float64
	opts := func() core.DistributedOptions {
		return core.DistributedOptions{Clusters: 2, DSE: core.DSEOptions{Cache: cache, WarmStart: warm}}
	}
	keepWarm := func(res *core.DistributedResult) {
		warm = make([][]float64, len(res.Step1))
		for si, r := range res.Step1 {
			warm[si] = r.X
		}
	}
	err = p.setUp(traced, func() error {
		var err error
		if dec, err = core.Decompose(n, 9, core.DecomposeOptions{Seed: decomposeSeed}); err != nil {
			return err
		}
		cache, warm = &core.DSECache{}, nil
		res, err := core.RunDistributed(ctx, dec, in.measurements(0, bufs[0]), opts())
		if err != nil {
			return err
		}
		keepWarm(res)
		return noteResults(newPass(false), res.Step1, res.Step2)
	})
	if err != nil {
		return nil, err
	}

	type sampled struct {
		k  int
		st powerflow.State
	}
	var samples []sampled
	var probe subsystemProbe
	var codec []*core.Subproblem
	p.loop(1, len(in.frames), func(k int) (time.Duration, error) {
		frame := in.measurements(k, bufs[k%2])
		bufs[k%2] = frame
		builds := cache.SkeletonBuilds()
		root := p.tr.begin("bench.frame", -1, k)
		id := p.tr.begin("core.RunDistributed", root, k)
		t0 := time.Now()
		res, err := core.RunDistributed(ctx, dec, frame, opts())
		lat := time.Since(t0)
		p.tr.end(id)
		p.tr.end(root)
		if err != nil {
			return lat, err
		}
		keepWarm(res)
		tm := res.Timings
		durs := []time.Duration{tm.Map, tm.Acquire, tm.Step1, tm.Remap, tm.Redistribute, tm.Exchange, tm.Step2, tm.Aggregate}
		p.tr.phases(id, k, distPhases, durs)
		var named time.Duration
		for _, d := range durs {
			named += d
		}
		p.sample("step1_ms", ms(tm.Step1))
		p.sample("step2_ms", ms(tm.Step2))
		p.sample("map_ms", ms(tm.Map+tm.Remap))
		p.sample("acquire_ms", ms(tm.Acquire))
		p.sample("exchange_ms", ms(tm.Exchange))
		p.sample("redistribute_ms", ms(tm.Redistribute))
		p.sample("fixed_ms", ms(tm.Total-named))
		p.sample("imbalance", res.Step1Mapping.Imbalance)
		p.add("migrations", float64(len(res.Migrated)))
		p.add("wire_bytes", float64(res.WireBytes))
		p.add("wire_msgs", float64(res.WireMessages))
		p.add("skeleton", float64(cache.SkeletonBuilds()-builds))
		if err := noteResults(p, res.Step1, res.Step2); err != nil {
			return lat, err
		}
		if err := checkTruth(p, res.State, in, k); err != nil {
			return lat, err
		}
		if k%sampleEvery == 0 {
			samples = append(samples, sampled{k, res.State.Clone()})
		}
		if traced {
			if codec == nil {
				codec = make([]*core.Subproblem, len(dec.Subsystems))
				for si := range codec {
					if codec[si], err = dec.BuildStep1(si, frame); err != nil {
						return lat, err
					}
				}
			}
			if err := codecProbe(p, dec, codec, k, res.Step1); err != nil {
				return lat, fmt.Errorf("codec probe: %w", err)
			}
			if err := probe.run(p, dec, k, frame, res.Step1); err != nil {
				return lat, fmt.Errorf("kernel probe: %w", err)
			}
		}
		return lat, nil
	})

	// Sampled frames must agree with the centralized estimate.
	for _, s := range samples {
		ref, err := core.CentralizedEstimate(ctx, n, in.measurements(s.k, nil), wls.Options{})
		if err != nil {
			p.fail(s.k, fmt.Errorf("centralized reference: %w", err))
			continue
		}
		_, _, vaMax, vmMax := rmse(s.st, ref.State.Va, ref.State.Vm)
		if vaMax > distTolVa || vmMax > distTolVm {
			p.fail(s.k, fmt.Errorf("distributed vs centralized: max |ΔVa| %.4g rad, max |ΔVm| %.4g pu", vaMax, vmMax))
		}
	}
	return p, nil
}

// codecProbe times the Step-2 pseudo-measurement codec on the frame's own
// Step-1 states: extract, encode and decode every subsystem's packet. It
// also measures the pseudo volume one exchange round sends to all
// neighbors, which RunDistributed reports only inside WireBytes.
func codecProbe(p *pass, dec *core.Decomposition, sps []*core.Subproblem, k int, step1 []*wls.Result) error {
	id := p.tr.begin("core.codec", -1, k)
	defer p.tr.end(id)
	var bytes, msgs int
	t0 := time.Now()
	for si, sp := range sps {
		pkt := dec.ExtractPseudo(si, sp, step1[si].State)
		b, err := core.EncodePacket(pkt)
		if err != nil {
			return err
		}
		if _, err := core.DecodePacket(b); err != nil {
			return err
		}
		nb := len(dec.Neighbors(si))
		bytes += len(b) * nb
		msgs += nb
	}
	p.sample("codec_us", us(time.Since(t0)))
	p.sample("codec_exch_bytes", float64(bytes))
	p.sample("codec_exch_msgs", float64(msgs))
	return nil
}

// ---------------------------------------------------------- re-screening

func runScreen118(cfg config, traced bool) (*pass, error) {
	ctx := context.Background()
	n, truth0, dec, err := ieee118()
	if err != nil {
		return nil, err
	}
	in, err := generate(n, truth0, dec, cfg.frames+1, false, cfg.seed)
	if err != nil {
		return nil, err
	}
	cases := nonIslandingOutages(n)
	ratings, err := contingency.AutoRatings(n, truth0, 1.3, 0.3, contingency.Options{})
	if err != nil {
		return nil, err
	}
	popts := contingency.ParallelOptions{Workers: runtime.NumCPU(), Scheduling: contingency.CounterScheduling}
	// Sampled cases per sweep, drawn from the seed.
	rng := rand.New(rand.NewSource(cfg.seed))
	picks := make([][]int, len(in.frames))
	for k := range picks {
		for _, c := range rng.Perm(len(cases))[:sampleCases] {
			picks[k] = append(picks[k], c)
		}
	}

	p := newPass(traced)
	var buf []meas.Measurement
	var pool *contingency.Pool
	err = p.setUp(traced, func() error {
		var err error
		if pool, err = contingency.NewPool(n, contingency.PoolOptions{Batch: 8}); err != nil {
			return err
		}
		_, _, err = pool.Screen(ctx, in.measurements(0, buf), ratings, cases, popts)
		return err
	})
	if err != nil {
		return nil, err
	}

	type sampled struct {
		k   int
		pos []int
		ces []contingency.CaseEstimate
	}
	var samples []sampled
	var kp *kernelProbe
	p.loop(1, len(in.frames), func(k int) (time.Duration, error) {
		buf = in.measurements(k, buf)
		root := p.tr.begin("bench.frame", -1, k)
		id := p.tr.begin("contingency.Pool.Screen", root, k)
		t0 := time.Now()
		results, st, err := pool.Screen(ctx, buf, ratings, cases, popts)
		lat := time.Since(t0)
		p.tr.end(id)
		p.tr.end(root)
		if err != nil {
			return lat, err
		}
		p.sample("cases_per_s", float64(st.Cases)/lat.Seconds())
		for name, v := range map[string]int{
			"cases": st.Cases, "estimated": st.Estimated, "pool_skeleton": st.SkeletonBuilds, "warm_starts": st.WarmStarts,
			"gn": st.GNIterations, "cg": st.CGIterations, "gain_refresh": st.GainRefreshes, "gain_skip": st.GainSkips,
			"precond_skip": st.PrecondSkips, "reuse_fallback": st.ReuseFallbacks, "batched": st.BatchedCases,
			"batch_fallbacks": st.BatchFallbacks, "reanchors": st.Reanchors, "batch_matvecs": st.BatchMatVecs,
			"compacted_matvecs": st.CompactedMatVecs,
		} {
			p.add(name, float64(v))
		}
		if st.Estimated != len(cases) {
			return lat, fmt.Errorf("estimated %d of %d non-islanding cases", st.Estimated, len(cases))
		}
		var j, dof float64
		for _, ce := range results {
			if ce.Estimate == nil || !ce.Estimate.Converged || !finiteState(ce.Estimate.State) {
				return lat, fmt.Errorf("outage %d: no converged finite estimate", ce.Outage)
			}
			j += ce.Estimate.ObjectiveJ
			dof += float64(len(ce.Estimate.Residuals) - len(ce.Estimate.X))
		}
		p.sample("j_ratio", ratio(j, dof))
		s := sampled{k: k, pos: picks[k]}
		for _, c := range s.pos {
			s.ces = append(s.ces, results[c])
		}
		samples = append(samples, s)
		if traced {
			if kp == nil {
				mod, err := meas.NewModel(n, buf, n.SlackIndex(), truth0.Va[n.SlackIndex()])
				if err != nil {
					return lat, err
				}
				kp = newKernelProbe(mod)
			}
			if err := kp.mod.UpdateValues(buf); err != nil {
				return lat, err
			}
			if err := kp.run(p, k, kp.mod.StateToVec(in.truth(k))); err != nil {
				return lat, fmt.Errorf("kernel probe: %w", err)
			}
		}
		return lat, nil
	})

	for _, s := range samples {
		frame := in.measurements(s.k, nil)
		// The sweep's accuracy is the base-case estimate of its frame: the
		// post-outage cases have no truth of their own.
		base, err := core.CentralizedEstimate(ctx, n, frame, wls.Options{})
		if err == nil {
			err = checkTruth(p, base.State, in, s.k)
		}
		if err != nil {
			p.fail(s.k, fmt.Errorf("base-case estimate: %w", err))
			continue
		}
		if err := checkCases(ctx, n, frame, ratings, cases, s.pos, s.ces, popts); err != nil {
			p.fail(s.k, err)
		}
	}
	return p, nil
}

// checkCases re-solves sampled cases on a cold scalar pool and compares
// states and violation lists.
func checkCases(ctx context.Context, n *grid.Network, frame []meas.Measurement, ratings []float64, cases, pos []int, got []contingency.CaseEstimate, popts contingency.ParallelOptions) error {
	ref, err := contingency.NewPool(n, contingency.PoolOptions{Batch: 1})
	if err != nil {
		return err
	}
	outs := make([]int, len(pos))
	for i, c := range pos {
		outs[i] = cases[c]
	}
	want, _, err := ref.Screen(ctx, frame, ratings, outs, popts)
	if err != nil {
		return fmt.Errorf("cold reference sweep: %w", err)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Outage != w.Outage {
			return fmt.Errorf("case order: outage %d vs %d", g.Outage, w.Outage)
		}
		_, _, vaMax, vmMax := rmse(g.Estimate.State, w.Estimate.State.Va, w.Estimate.State.Vm)
		if vaMax > screenTol || vmMax > screenTol {
			return fmt.Errorf("outage %d: batched vs cold scalar state differs by %.3g rad / %.3g pu", g.Outage, vaMax, vmMax)
		}
		if len(g.Violations) != len(w.Violations) {
			return fmt.Errorf("outage %d: %d violations vs %d", g.Outage, len(g.Violations), len(w.Violations))
		}
		for v := range g.Violations {
			if g.Violations[v].Branch != w.Violations[v].Branch {
				return fmt.Errorf("outage %d: violation %d on branch %d vs %d", g.Outage, v, g.Violations[v].Branch, w.Violations[v].Branch)
			}
		}
	}
	return nil
}
