package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host steal gate. On a VM the host can keep the vCPUs from running for
// tens of seconds at a time (steal time); on a 2-vCPU VM such a phase
// raised dist-118-tcp's median frame by 55 % and its p90 by 130 % for a
// whole run while the program's own CPU time per frame rose 13 %. A frame
// timed then measures the host, not the program. So the timed loop is cut
// into blocks of at least stealBlock; when the VM lost more than stealMax
// of its CPU time to steal during a block, the block's frames are still
// run, checked and counted, but their latencies are left out of the
// timing metrics, and the loop waits, spinning every P in stealProbe
// windows, until the host runs the VM again; a process waits at most
// stealWaitMax in all, so that a run stays within its time limit. Where
// /proc/stat has no steal figure, every block is timed.
const (
	stealBlock   = time.Second
	stealMax     = 0.04
	stealProbe   = 500 * time.Millisecond
	stealWaitMax = 10 * time.Second
)

// stealWaitLeft is what remains of the process's stealWaitMax.
var stealWaitLeft = stealWaitMax

// stealMeter measures the VM's share of CPU time lost to steal since its
// last mark.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func newStealMeter() *stealMeter {
	m := &stealMeter{}
	m.mark()
	return m
}

func (m *stealMeter) mark() { m.total, m.steal, m.ok = hostCPU() }

// share returns the steal share since the last mark and marks again; ok
// is false when it cannot be measured.
func (m *stealMeter) share() (share float64, ok bool) {
	total0, steal0, ok0 := m.total, m.steal, m.ok
	m.mark()
	if !ok0 || !m.ok || m.total <= total0 {
		return 0, false
	}
	return float64(m.steal-steal0) / float64(m.total-total0), true
}

// hostCPU returns the VM's cumulative CPU time and steal time in clock
// ticks, from the first line of /proc/stat.
func hostCPU() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// waitForHost spins every P in stealProbe windows until a window loses at
// most stealMax to steal or budget is spent, and returns the time spent.
// An idle VM shows no steal, so the probe has to keep the vCPUs busy.
func waitForHost(budget time.Duration) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < budget {
		m := newStealMeter()
		spin(stealProbe)
		if share, ok := m.share(); !ok || share <= stealMax {
			break
		}
	}
	return time.Since(t0)
}

// spin keeps every P busy for d.
func spin(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := time.Now(); time.Since(t0) < d; {
			}
		}()
	}
	wg.Wait()
}
