// Command validate checks every estimator's accuracy guarantee against exact
// ground truth at full scale. It runs the acceptance matrix's cells
// (internal/acceptance) for one backend — the seven estimator families on
// four float32 inputs and on two uint64 and two float64 inputs — and prints
// one row per cell: the worst error of the live view, of that view restored
// from its wire blob, and of the root of a merge tree, each as a share of
// the values it answers for, next to the bound. Quantile answers are held to
// eps·N + 1 ranks, frequency estimates to an undercount of eps·N (DESIGN.md
// §31); frugal trackers carry no eps and are held to internal/frugal's
// documented tolerance, or only to the stream's envelope where the bound
// column reads 0. The process exits non-zero on any violation, so this
// doubles as an acceptance harness.
//
// Usage:
//
//	validate [-n 200000] [-seed 1] [-backend samplesort|gpu|gpu-bitonic|cpu|cpu-parallel|auto]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"gpustream"
	"gpustream/internal/acceptance"
)

func main() {
	n := flag.Int("n", 200_000, "stream length per cell")
	seed := flag.Uint64("seed", 1, "generator seed")
	var backend gpustream.Backend // the default is the zero value, as in a Spec that names none
	flag.TextVar(&backend, "backend", backend, "sorting backend: samplesort|gpu|gpu-bitonic|cpu|cpu-parallel|auto")
	flag.Parse()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "cell\tasync\tshards\tbound\tlive\trestored\tmerged\th\tok\t")
	var violations []string
	for _, c := range acceptance.Cells(*n, *seed, backend) {
		r := c.Run()
		async, shards := "-", "-"
		if c.Spec.Family != gpustream.FamilyFrugal {
			async = c.Spec.Async.String()
		}
		if c.Spec.Family.Parallel() {
			shards = c.Spec.Shards.String()
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%g\t%.6f\t%.6f\t%.6f\t%d\t%v\t\n",
			c.Name(), async, shards, r.Bound, r.Live, r.Restored, r.Merged, c.H, r.Err == nil)
		if r.Err != nil {
			violations = append(violations, fmt.Sprintf("%v: %v", c, r.Err))
		}
	}
	w.Flush()
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "validate:", v)
		}
		fmt.Fprintln(os.Stderr, "validate: BOUND VIOLATION")
		os.Exit(1)
	}
	fmt.Println("all measured errors within advertised bounds")
}
