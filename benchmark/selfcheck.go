package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childEnv marks a run started by -all or -selfcheck. Such runs follow one
// another without a pause, so the load average they see at start is the
// previous run's and the warning about it would only be noise.
const childEnv = "BENCHMARK_CHILD"

// child runs one workload in a fresh process — exactly what the driver does —
// so no run inherits another's heap. It passes the child's report through
// when echo is set and returns the parsed result line.
func child(name string, cfg runConfig, echo bool) (*jsonResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceFlag := "0"
	if cfg.Trace {
		traceFlag = "1"
	}
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace", traceFlag)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.Env = append(os.Environ(), childEnv+"=1")
	runErr := cmd.Run()
	if echo {
		os.Stdout.Write(stdout.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload once and prints each report.
func runAll(cfg runConfig) int {
	status := 0
	for _, w := range workloads {
		res, err := child(w.Name, cfg, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			status = 1
		} else if !res.Correct || res.Failed > 0 {
			status = 1
		}
		fmt.Println()
	}
	return status
}

// runSelfcheck measures the benchmark's own noise the way the driver does:
// two sets of reps runs of every workload on the current tree, each run with
// another seed. It prints, per end-to-end metric, both medians, their
// difference in the worsening direction and both spreads (interquartile
// distance over median), and fails when a set's spread or the difference
// between the sets exceeds the metric's bound. The spread of setup_s is
// printed but, as in the driver, not gated.
func runSelfcheck(reps int, cfg runConfig) int {
	cfg.Trace = false
	status := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := range reps {
				run := cfg
				run.Seed = cfg.Seed + uint64(set*reps+i)
				res, err := child(w.Name, run, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d operations failed\n", w.Name, run.Seed, res.Failed, res.Attempted)
					status = 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s  (%d runs a set, %gs each, seeds %d..%d)\n", w.Name, reps, cfg.Seconds, cfg.Seed, cfg.Seed+uint64(2*reps)-1)
		fmt.Printf("  %-22s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if math.Abs(worse) > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "FAIL"
				status = 1
			}
			fmt.Printf("  %-22s %12.5g %12.5g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	return status
}
