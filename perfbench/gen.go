package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/partition"
	"repro/internal/powerflow"
)

// Input generation. Everything a workload feeds the system is generated
// here from the workload seed before any timing starts: the network, the
// drifting truth, the noisy measurement frames and the topology events.
// The system under test receives only the generated measurements.

const (
	// scadaCycle is the acquisition period every frame models; the noise
	// level follows partition.NoiseFromTimeFrame at this cycle.
	scadaCycle = 4 * time.Second
	// The truth moves in two parts. A load swing shared by every seed
	// scales all angles about the slack by up to loadSwing and back over
	// loadPeriod frames, so every run sees the same operating-point travel
	// (and the same anchor drift in the reuse and batch layers). On top, PQ
	// buses random-walk: angles by driftSigma rad per frame, magnitudes by a
	// tenth of it in pu, each pulled back by driftPull per frame. The pull
	// keeps the walk's memory to a few frames, so a run's cost does not
	// hinge on how far one seed's walk happens to wander.
	loadSwing  = 0.02
	loadPeriod = 100
	driftSigma = 1e-3
	driftPull  = 0.2
	// eventEvery is the frame spacing of topology events on track-118.
	eventEvery = 50
	// pmuSigma is the reference-bus PMU sigma (as in experiments.NewFixture).
	pmuSigma = 0.0005
	// decomposeSeed is the fixed partitioner seed of the IEEE-118 split.
	decomposeSeed = 1
)

// topology is one network configuration with its metering plan.
type topology struct {
	net    *grid.Network
	plan   []meas.Measurement
	outage int // out-of-service branch relative to the base, or -1
}

// frameInput is one generated acquisition frame.
type frameInput struct {
	topo             int       // index into inputs.topos
	values           []float64 // measurement values, in topos[topo].plan order
	truthVa, truthVm []float64
}

// inputs is a workload's full generated input stream.
type inputs struct {
	topos  []topology
	frames []frameInput
}

// measurements writes frame k's measurement set into buf (reusing its
// capacity) and returns it.
func (in *inputs) measurements(k int, buf []meas.Measurement) []meas.Measurement {
	fr := &in.frames[k]
	plan := in.topos[fr.topo].plan
	buf = append(buf[:0], plan...)
	for i := range buf {
		buf[i].Value = fr.values[i]
	}
	return buf
}

// truth returns frame k's true operating state.
func (in *inputs) truth(k int) powerflow.State {
	fr := &in.frames[k]
	return powerflow.State{Va: fr.truthVa, Vm: fr.truthVm}
}

// ieee118 returns the IEEE-118 network, its solved base state and the
// standard 9-subsystem decomposition.
func ieee118() (*grid.Network, powerflow.State, *core.Decomposition, error) {
	n := grid.Case118()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		return nil, powerflow.State{}, nil, fmt.Errorf("ieee118 power flow: %w", err)
	}
	dec, err := core.Decompose(n, 9, core.DecomposeOptions{Seed: decomposeSeed})
	if err != nil {
		return nil, powerflow.State{}, nil, err
	}
	return n, pf.State, dec, nil
}

// wecc12 returns the 12-area synthetic interconnection, its solved base
// state and the one-subsystem-per-area decomposition.
func wecc12() (*grid.Network, powerflow.State, *core.Decomposition, error) {
	n, err := grid.SynthWECC(grid.SynthOptions{Areas: 12, Seed: 1})
	if err != nil {
		return nil, powerflow.State{}, nil, err
	}
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
	if err != nil {
		return nil, powerflow.State{}, nil, fmt.Errorf("wecc12 power flow: %w", err)
	}
	dec, err := core.DecomposeWithParts(n, 12, grid.AreaParts(n), 1)
	if err != nil {
		return nil, powerflow.State{}, nil, err
	}
	return n, pf.State, dec, nil
}

// planFor is the full metering plan plus the DSE reference-bus PMUs.
func planFor(n *grid.Network, dec *core.Decomposition) []meas.Measurement {
	plan := meas.FullPlan().Build(n)
	return append(plan, core.PMUPlanFor(dec, plan, pmuSigma)...)
}

// generate builds nFrames frames over the base network. With events set,
// every eventEvery frames a branch inside one subsystem toggles: out of
// service, then back in at the next event. Outaged branches never island
// the network and never split their subsystem, so the perturbed
// decomposition keeps the base bus ownership and reference buses.
func generate(n *grid.Network, truth0 powerflow.State, dec *core.Decomposition, nFrames int, events bool, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{topos: []topology{{net: n, plan: planFor(n, dec), outage: -1}}}
	noise := partition.NoiseFromTimeFrame(scadaCycle)
	slack := truth0.Va[n.SlackIndex()]
	walkVa := make([]float64, n.N())
	walkVm := make([]float64, n.N())
	topo := 0
	for k := 0; k < nFrames; k++ {
		swing := loadSwing * (1 - math.Cos(2*math.Pi*float64(k)/loadPeriod)) / 2
		st := powerflow.State{Va: make([]float64, n.N()), Vm: make([]float64, n.N())}
		for i, b := range n.Buses {
			if k > 0 && b.Type == grid.PQ {
				walkVa[i] += driftSigma*rng.NormFloat64() - driftPull*walkVa[i]
				walkVm[i] += 0.1*driftSigma*rng.NormFloat64() - driftPull*walkVm[i]
			}
			st.Va[i] = truth0.Va[i] + swing*(truth0.Va[i]-slack) + walkVa[i]
			st.Vm[i] = truth0.Vm[i] + walkVm[i]
		}
		if events && k > 0 && k%eventEvery == 0 {
			if topo == 0 {
				t, err := pickOutage(dec, rng)
				if err != nil {
					return nil, err
				}
				in.topos = append(in.topos, t)
				topo = len(in.topos) - 1
			} else {
				topo = 0
			}
		}
		t := in.topos[topo]
		ms, err := meas.Simulate(t.net, t.plan, st, noise, rng.Int63())
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", k, err)
		}
		values := make([]float64, len(ms))
		for i, m := range ms {
			values[i] = m.Value
		}
		in.frames = append(in.frames, frameInput{topo: topo, values: values, truthVa: st.Va, truthVm: st.Vm})
	}
	return in, nil
}

// pickOutage draws a subsystem-internal branch whose outage neither
// islands the network nor changes the decomposition's bus ownership.
func pickOutage(dec *core.Decomposition, rng *rand.Rand) (topology, error) {
	var cands []int
	for _, s := range dec.Subsystems {
		cands = append(cands, s.InternalBranches...)
	}
	for tries := 0; tries < 100; tries++ {
		br := cands[rng.Intn(len(cands))]
		pdec, err := dec.PerturbBranch(br, 0)
		if err != nil {
			continue // islanding outage
		}
		if !sameOwners(dec, pdec) {
			continue
		}
		return topology{net: pdec.Net, plan: planFor(pdec.Net, pdec), outage: br}, nil
	}
	return topology{}, fmt.Errorf("no non-islanding subsystem-internal outage found")
}

// sameOwners reports whether two decompositions assign every bus to the
// same subsystem with the same reference buses.
func sameOwners(a, b *core.Decomposition) bool {
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			return false
		}
	}
	for si := range a.Subsystems {
		if a.Subsystems[si].RefBus != b.Subsystems[si].RefBus {
			return false
		}
	}
	return true
}

// nonIslandingOutages lists every in-service branch whose outage keeps the
// network connected, ascending.
func nonIslandingOutages(n *grid.Network) []int {
	var out []int
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		c := n.Clone()
		c.Branches[bi].Status = false
		if c.Connected() {
			out = append(out, bi)
		}
	}
	return out
}

// rmse returns the per-bus RMS angle error (mrad) and magnitude error
// (milli-pu) of st against the truth, and the largest absolute errors
// (rad, pu).
func rmse(st powerflow.State, va, vm []float64) (vaRMS, vmRMS, vaMax, vmMax float64) {
	var sa, sm float64
	for i := range va {
		da := st.Va[i] - va[i]
		dm := st.Vm[i] - vm[i]
		sa += da * da
		sm += dm * dm
		vaMax = math.Max(vaMax, math.Abs(da))
		vmMax = math.Max(vmMax, math.Abs(dm))
	}
	nb := float64(len(va))
	return 1e3 * math.Sqrt(sa/nb), 1e3 * math.Sqrt(sm/nb), vaMax, vmMax
}

// finiteState reports whether every entry of st is finite.
func finiteState(st powerflow.State) bool {
	for i := range st.Va {
		if math.IsNaN(st.Va[i]) || math.IsInf(st.Va[i], 0) || math.IsNaN(st.Vm[i]) || math.IsInf(st.Vm[i], 0) {
			return false
		}
	}
	return len(st.Va) > 0
}
