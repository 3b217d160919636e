package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestGenerateDeterministic checks that one seed gives bitwise-identical
// frames, truths and events, and that another seed gives other frames.
func TestGenerateDeterministic(t *testing.T) {
	n, truth0, dec, err := ieee118()
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(n, truth0, dec, 2*eventEvery+2, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(n, truth0, dec, 2*eventEvery+2, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.frames) != len(b.frames) || len(a.topos) != len(b.topos) {
		t.Fatalf("shape differs: %d/%d frames, %d/%d topologies", len(a.frames), len(b.frames), len(a.topos), len(b.topos))
	}
	for k := range a.frames {
		fa, fb := a.frames[k], b.frames[k]
		if fa.topo != fb.topo || !bitwiseEqual(fa.values, fb.values) || !bitwiseEqual(fa.truthVa, fb.truthVa) || !bitwiseEqual(fa.truthVm, fb.truthVm) {
			t.Fatalf("frame %d differs between two generations with one seed", k)
		}
	}
	for i := range a.topos {
		if a.topos[i].outage != b.topos[i].outage || !reflect.DeepEqual(a.topos[i].plan, b.topos[i].plan) {
			t.Fatalf("topology %d differs", i)
		}
	}
	c, err := generate(n, truth0, dec, 3, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bitwiseEqual(a.frames[1].values, c.frames[1].values) {
		t.Fatal("seeds 7 and 8 gave the same frame")
	}
}

// TestEventsNeverIsland checks the topology-event schedule: an outage
// every other event, never islanding the network nor moving a bus to
// another subsystem, and restored at the next event.
func TestEventsNeverIsland(t *testing.T) {
	n, truth0, dec, err := ieee118()
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(n, truth0, dec, 8*eventEvery+1, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.topos) != 5 {
		t.Fatalf("%d topologies, want base + 4 outages", len(in.topos))
	}
	for k, fr := range in.frames {
		want := 0
		if e := k / eventEvery; e%2 == 1 {
			want = (e + 1) / 2
		}
		if fr.topo != want {
			t.Fatalf("frame %d on topology %d, want %d", k, fr.topo, want)
		}
	}
	for _, tp := range in.topos[1:] {
		if !tp.net.Connected() {
			t.Fatalf("outage of branch %d islands the network", tp.outage)
		}
		if tp.net.Branches[tp.outage].Status {
			t.Fatalf("branch %d still in service", tp.outage)
		}
		pdec, err := dec.PerturbBranch(tp.outage, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOwners(dec, pdec) {
			t.Fatalf("outage of branch %d moves buses between subsystems", tp.outage)
		}
		if dec.Owner[n.MustIndex(n.Branches[tp.outage].From)] != dec.Owner[n.MustIndex(n.Branches[tp.outage].To)] {
			t.Fatalf("branch %d is a tie line", tp.outage)
		}
	}
}

// TestCountsRepeat runs each workload twice on one seed and requires every
// count (Gauss–Newton and CG iterations, skeleton builds, wire bytes,
// batched matrix-vector passes, …) to repeat exactly, also between an
// untraced and a traced pass.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// Short streams: two topology events on track-118, a few
			// frames elsewhere.
			frames := map[string]int{"track-118": 2*eventEvery + 5, "dist-118-tcp": 2 * sampleEvery, "screen-118": 3, "track-wecc12": 4}
			cfg := config{workload: w.name, seed: 5, seconds: 1, frames: frames[w.name]}
			first, err := w.run(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			second, err := w.run(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.run(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range []*pass{first, second, traced} {
				if p.failed != 0 {
					t.Fatalf("pass %d: %d failed frames: %v", i, p.failed, p.failures)
				}
			}
			if len(first.counts) == 0 || first.counts["gn"] == 0 {
				t.Fatalf("no counts recorded: %v", first.counts)
			}
			if d := countDiff(first.counts, second.counts); d != "" {
				t.Errorf("counts differ between two runs: %s", d)
			}
			if d := countDiff(first.counts, traced.counts); d != "" {
				t.Errorf("counts differ between untraced and traced runs: %s", d)
			}
		})
	}
}

// TestCountsIncludeEvents checks that track-118 sees its topology events:
// every event frame rebuilds skeletons.
func TestCountsIncludeEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w, _ := findWorkload("track-118")
	p, err := w.run(config{workload: w.name, seed: 2, seconds: 1, frames: 2*eventEvery + 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.series["event_ms"]); got != 2 {
		t.Fatalf("%d event frames, want 2", got)
	}
	if p.counts["skeleton"] == 0 {
		t.Fatal("event frames built no skeletons")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles %v %v, want 1 4", q1, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5] (extrapolated)
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("quartiles %v %v, want 0.5 3.5", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tailPercentile(xs, 10); p != 99 || v != 990 {
		t.Fatalf("p%d = %v, want p99 = 990", p, v)
	}
	if p, v := tailPercentile(xs[:100], 10); p != 90 || v != 90 {
		t.Fatalf("100 samples: p%d = %v, want p90 = 90", p, v)
	}
	if p, v := tailPercentile(xs[:10], 10); p != 100 || v != 10 {
		t.Fatalf("10 samples: p%d = %v, want the maximum", p, v)
	}
	dist, _ := findWorkload("dist-118-tcp")
	if p, v := dist.tail(xs[:500]); p != 90 || v != 450 {
		t.Fatalf("dist-118-tcp tail: p%d = %v, want p90 = 450", p, v)
	}
	track, _ := findWorkload("track-118")
	if p, v := track.tail(xs); p != 99 || v != 990 {
		t.Fatalf("track-118 tail: p%d = %v, want p99 = 990", p, v)
	}
}

// TestTimedFallback checks which frames the timing metrics use: the
// blocks the steal gate kept, or every frame when it kept too few.
func TestTimedFallback(t *testing.T) {
	p := &pass{lat: make([]float64, 300), blockWall: 3 * time.Second}
	p.timedLat, p.timedWall = p.lat[:30], time.Second
	if lat, wall := p.timed(); len(lat) != 30 || wall != time.Second {
		t.Fatalf("30 of 300 kept: timed %d frames over %v, want the 30 kept", len(lat), wall)
	}
	p.timedLat = p.lat[:29]
	if lat, wall := p.timed(); len(lat) != 300 || wall != 3*time.Second {
		t.Fatalf("29 of 300 kept: timed %d frames over %v, want all 300", len(lat), wall)
	}
	p.lat, p.timedLat = p.lat[:100], p.lat[:19]
	if lat, _ := p.timed(); len(lat) != 100 {
		t.Fatalf("19 of 100 kept: timed %d frames, want all 100", len(lat))
	}
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
