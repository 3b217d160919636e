// Command perfbench is the repository's operational benchmark: it drives
// the distributed state estimator through named closed-loop workloads
// generated from a seed, checks every output, and prints the end-to-end
// metrics (untraced) or the per-layer metrics (traced) as one JSON line.
//
//	perfbench --workload track-118 --seed 1 --seconds 10 --trace 0
//	perfbench --workload track-118 --seed 1 --seconds 10 --steady 5
//
// See README.md in this directory for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	frames   int
}

// outDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: the workload runs seconds × its nominal frame rate frames")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times (seeds seed, seed+1, …) and print each metric's median and quartiles against its bound")
	flag.Parse()
	w, ok := findWorkload(cfg.workload)
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1 [--steady RUNS]\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.frames = w.frames(cfg.seconds)
	if steady > 0 {
		os.Exit(runSteady(cfg, steady))
	}
	os.Exit(runOnce(w, cfg))
}

// runOnce runs one workload and prints its record and result line.
func runOnce(w workload, cfg config) int {
	untraced, err := w.run(cfg, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	e2e, pct := untraced.endToEnd(w)
	res := result{Correct: true, Attempted: untraced.attempted, Failed: untraced.failed, Metrics: map[string]metric{}}
	passes := []*pass{untraced}
	if cfg.trace {
		traced, err := w.run(cfg, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", w.name, err)
			return 2
		}
		passes = append(passes, traced)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if diff := countDiff(untraced.counts, traced.counts); diff != "" {
			fmt.Fprintf(os.Stderr, "perfbench: counts differ between untraced and traced passes: %s\n", diff)
			res.Correct = false
		}
		for name, v := range layerMetrics(untraced, traced, e2e["frame_p50_ms"]) {
			res.Metrics[name] = metric{v, layerUnits[name]}
		}
		path, err := traced.tr.write(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(traced.tr.spans), path)
	} else {
		for name, v := range e2e {
			res.Metrics[name] = metric{v, endToEndUnits[name]}
		}
	}
	for i, p := range passes {
		for _, f := range p.failures {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: failed %s\n", i, f)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	record := map[string]any{
		"workload":        w.name,
		"seed":            cfg.seed,
		"trace":           cfg.trace,
		"frames":          len(untraced.lat),
		"timed_frames":    len(untraced.timedLat),
		"steal_share":     untraced.stealShare,
		"steal_wait_s":    untraced.stealWait.Seconds(),
		"setup_reps":      len(untraced.setup),
		"tail_percentile": pct,
		"failed_frac":     ratio(float64(res.Failed), float64(res.Attempted)),
		"counts":          untraced.counts,
		"provenance":      provenance(),
	}
	emit(map[string]any{"record": record})
	printHuman(w.name, res)
	emit(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// printHuman writes the metrics, one per line, to standard error.
func printHuman(name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// countDiff lists every count that differs between two passes.
func countDiff(a, b map[string]float64) string {
	keys := make(map[string]bool)
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", k, a[k], b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// provenance stamps a record with what produced it.
func provenance() map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"dirty":      modified == "true",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
