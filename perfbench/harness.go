package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// pass is one run of a workload's timed loop, untraced or traced.
type pass struct {
	setup []float64 // seconds per set-up repetition
	lat   []float64 // ms per frame
	// timedLat and timedWall are the frames and the wall time of the
	// blocks the steal gate kept; blockWall is the wall time of every
	// block, without the gate's waits.
	timedLat   []float64
	timedWall  time.Duration
	blockWall  time.Duration
	stealWait  time.Duration
	stealShare float64 // of the VM's CPU time over the loop, 0 if unknown
	attempted  int
	failed     int
	failures   []string

	vaRMS, vmRMS float64 // sums over frames; divided by rmsN at report time
	rmsN         int

	allocBytes uint64
	numGC      uint32
	pauseNs    uint64
	heapPeak   uint64

	// counts holds layer work totals over the timed loop; they are
	// deterministic for a given seed and compared across passes.
	counts map[string]float64
	// series holds per-frame layer values (timings, ratios).
	series map[string][]float64
	tr     *tracer
}

func newPass(traced bool) *pass {
	p := &pass{counts: make(map[string]float64), series: make(map[string][]float64)}
	if traced {
		p.tr = newTracer()
	}
	return p
}

func (p *pass) add(name string, v float64)    { p.counts[name] += v }
func (p *pass) sample(name string, v float64) { p.series[name] = append(p.series[name], v) }
func (p *pass) med(name string) float64       { return median(p.series[name]) }
func (p *pass) mean(name string) float64 {
	return ratio(sum(p.series[name]), float64(len(p.series[name])))
}
func (p *pass) perFrame(name string) float64 { return ratio(p.counts[name], float64(len(p.lat))) }
func (p *pass) frac(num, den string) float64 { return ratio(p.counts[num], p.counts[den]) }
func (p *pass) noteRMS(vaRMS, vmRMS float64) { p.vaRMS += vaRMS; p.vmRMS += vmRMS; p.rmsN++ }
func (p *pass) meanRMS() (va, vm float64) {
	return ratio(p.vaRMS, float64(p.rmsN)), ratio(p.vmRMS, float64(p.rmsN))
}

// fail records a failed frame.
func (p *pass) fail(frame int, err error) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf("frame %d: %v", frame, err))
	}
}

// An untraced pass repeats its set-up at least minSetupReps times, and
// more while the repetitions so far took under setupBudget, up to
// maxSetupReps; setup_s is their median. A traced pass sets up once.
const (
	minSetupReps = 3
	maxSetupReps = 50
	setupBudget  = time.Second
)

// setUp runs f as the pass's set-up, repeated as above.
func (p *pass) setUp(traced bool, f func() error) error {
	var spent time.Duration
	for r := 0; r < maxSetupReps; r++ {
		if r > 0 && (traced || (r >= minSetupReps && spent >= setupBudget)) {
			break
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		p.setup = append(p.setup, d.Seconds())
	}
	return nil
}

// loop runs frames first..last-1 as a closed loop. step runs one frame,
// returns its latency (excluding any checks it runs afterwards) and an
// error for a failed frame; failed frames are counted, never retried.
// Memory statistics bracket the loop; the live heap is sampled after every
// frame. The steal gate (steal.go) decides which blocks of frames are
// timed.
func (p *pass) loop(first, last int, step func(k int) (time.Duration, error)) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	whole, block := newStealMeter(), newStealMeter()
	blockStart, blockFirst := time.Now(), 0
	for k := first; k < last; k++ {
		p.attempted++
		lat, err := step(k)
		p.lat = append(p.lat, ms(lat))
		if err != nil {
			p.fail(k, err)
		}
		metrics.Read(heap)
		if v := heap[0].Value.Uint64(); v > p.heapPeak {
			p.heapPeak = v
		}
		if now := time.Now(); now.Sub(blockStart) >= stealBlock || k == last-1 {
			wall := now.Sub(blockStart)
			p.blockWall += wall
			if share, ok := block.share(); !ok || share <= stealMax {
				p.timedLat = append(p.timedLat, p.lat[blockFirst:]...)
				p.timedWall += wall
			} else if k < last-1 && stealWaitLeft > 0 {
				d := waitForHost(stealWaitLeft)
				stealWaitLeft -= d
				p.stealWait += d
				block.mark()
			}
			blockStart, blockFirst = time.Now(), len(p.lat)
		}
	}
	p.stealShare, _ = whole.share()
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.numGC = after.NumGC - before.NumGC
	p.pauseNs = after.PauseTotalNs - before.PauseTotalNs
}

// timed returns the frame latencies and the wall time the timing metrics
// are taken from: the blocks the steal gate kept, or every block when it
// kept fewer than a tenth of the frames or fewer than 20.
func (p *pass) timed() ([]float64, time.Duration) {
	if n := len(p.timedLat); 10*n >= len(p.lat) && n >= 20 {
		return p.timedLat, p.timedWall
	}
	return p.lat, p.blockWall
}

// endToEnd returns the end-to-end metrics of an untraced pass of w and the
// tail percentile it reports.
func (p *pass) endToEnd(w workload) (map[string]float64, int) {
	lat, wall := p.timed()
	pct, tail := w.tail(lat)
	n := float64(len(p.lat))
	va, vm := p.meanRMS()
	return map[string]float64{
		"setup_s":            median(p.setup),
		"frame_p50_ms":       median(lat),
		"frame_tail_ms":      tail,
		"frames_per_s":       float64(len(lat)) / wall.Seconds(),
		"va_rmse_mrad":       va,
		"vm_rmse_mpu":        vm,
		"alloc_kb_per_frame": float64(p.allocBytes) / 1024 / n,
		"heap_peak_mb":       float64(p.heapPeak) / (1 << 20),
	}, pct
}
