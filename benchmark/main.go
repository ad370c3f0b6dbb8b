// Command benchmark is the repository's one performance instrument: five
// named workloads that drive the library and the daemon the way a user does,
// eight end-to-end metrics measured with tracing off, and a separate traced
// run that attributes the time to layers from the outside in. README.md in
// this directory names every workload and metric and says how to read them;
// BENCHMARK.json at the repository root is the same list for the driver.
//
//	go run ./benchmark -workload lib-freq-zipf -seed 1
//	go run ./benchmark -all                    every workload, end-to-end tables
//	go run ./benchmark -all -trace 1           per-layer tables, trace.<workload>.json
//	go run ./benchmark -selfcheck 10           two sets of 10 runs must agree
//
// Every answer is checked against exact ground truth; the exit status is
// non-zero on any violated eps bound or failed request. The last line of
// standard output is the machine-readable result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// defaultSeconds is the measured-phase length the driver uses (run_seconds in
// BENCHMARK.json).
const defaultSeconds = 15

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		all       = flag.Bool("all", false, "run every workload, each in its own process")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of `R` runs of every workload and fail if they disagree beyond a metric's bound")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json, the driver's copy of the workload and metric tables")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1 records spans, reports the per-layer table instead of the end-to-end one and writes trace.<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Scale: 1}

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *selfcheck > 0:
		os.Exit(runSelfcheck(*selfcheck, cfg))
	case *all:
		os.Exit(runAll(cfg))
	case *workload != "":
		os.Exit(runOne(*workload, cfg))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runOne runs one workload in this process and prints its report.
func runOne(name string, cfg runConfig) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -help)\n", name)
		return 2
	}
	tmp, err := os.MkdirTemp(".", ".benchmark_tmp-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg.TmpDir = tmp
	if cfg.Trace {
		cfg.TraceOut = "trace." + name + ".json"
	}
	res, err := w.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	printReport(res)
	if res.Host.LoadAvg1 > 0.5 && os.Getenv(childEnv) == "" {
		fmt.Fprintf(os.Stderr, "benchmark: warning: the 1-minute load average was %.2f at start; timings are noisy\n", res.Host.LoadAvg1)
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// jsonMetric is one metric of the machine-readable result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints every metric by name with its unit, then the result
// line: the per-layer metrics for a traced run, the end-to-end ones otherwise.
func printReport(res *result) {
	host, _ := json.Marshal(res.Host) // a struct of plain fields
	fmt.Printf("workload %s\nhost %s\n", res.Workload, host)
	for _, d := range res.Detail {
		fmt.Printf("  %s\n", d)
	}
	defs, values := endToEnd, res.EndToEnd
	if res.PerLayer != nil {
		defs, values = perLayer, res.PerLayer
	}
	out := jsonResult{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("  %-40s %16.6g %s\n", m.Name, v, m.Unit)
		out.Metrics[m.Name] = jsonMetric{v, m.Unit}
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	line, _ := json.Marshal(out) // finite floats and strings only
	fmt.Printf("%s\n", line)
}

// manifestJSON renders the registry as the BENCHMARK.json the driver reads:
//
//	go run ./benchmark -manifest > BENCHMARK.json
func manifestJSON() []byte {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	blob, _ := json.MarshalIndent(doc, "", "  ") // strings and finite floats only
	return append(blob, '\n')
}
