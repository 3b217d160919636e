package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs the workload `runs` times, each in its own process with
// seeds cfg.seed, cfg.seed+1, …, and prints every metric's median and
// quartiles, with the quartile spread as a share of the median against
// the metric's bound from BENCHMARK.json. It returns a non-zero exit code
// when a run fails or reports incorrect output.
func runSteady(cfg config, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
			return 2
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < runs; i++ {
		seed := cfg.seed + int64(i)
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, err := lastResult(out.Bytes())
		if err != nil || runErr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: steady run seed %d: run error %v, parse error %v\n", seed, runErr, err)
			code = 1
			continue
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, seeds %d..%d, %d s\n", cfg.workload, runs, cfg.seed, cfg.seed+int64(runs)-1, cfg.seconds)
	fmt.Printf("%-40s %12s %12s %12s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, n := range names {
		xs := values[n]
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := ratio(q3-q1, med)
		verdict := ""
		if b, ok := bounds[n]; ok {
			verdict = "steady"
			if spread >= b/3 {
				verdict = "WIDE"
			}
			if spread > b {
				verdict = "OVER BOUND"
			}
			fmt.Printf("%-40s %12.6g %12.6g %12.6g %8.4f %6.3f %s %.4g\n", n, q1, med, q3, spread, b, verdict, xs)
			continue
		}
		fmt.Printf("%-40s %12.6g %12.6g %12.6g %8.4f %6s %s\n", n, q1, med, q3, spread, "-", units[n])
	}
	return code
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if last == nil {
		return res, fmt.Errorf("no output")
	}
	return res, json.Unmarshal(last, &res)
}
