// Command validate empirically checks every estimator's accuracy guarantee
// against exact ground truth: for each estimator family, epsilon and input
// distribution it measures the worst observed error and prints it next to
// the advertised bound. Every row must show measured <= bound; the process
// exits non-zero otherwise, so this doubles as an acceptance harness.
//
// Usage:
//
//	validate [-n 200000] [-seed 1] [-backend samplesort|gpu|gpu-bitonic|cpu|cpu-parallel|auto]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"gpustream"
	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

var failed bool

func main() {
	n := flag.Int("n", 200_000, "stream length per experiment")
	seed := flag.Uint64("seed", 1, "generator seed")
	var backend gpustream.Backend // the default is the zero value, as in a Spec that names none
	flag.TextVar(&backend, "backend", backend, "sorting backend: samplesort|gpu|gpu-bitonic|cpu|cpu-parallel|auto")
	flag.Parse()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "estimator\tdistribution\teps\tmeasured-max-error\tbound\tok\t")

	dists := func(s uint64) map[string][]float32 {
		return map[string][]float32{
			"uniform": stream.Uniform(*n, s),
			"zipf":    stream.Zipf(*n, 1.2, *n/50+10, s+1),
			"gauss":   stream.Gaussian(*n, 0, 100, s+2),
			"sorted":  stream.Sorted(*n),
		}
	}

	eng := gpustream.New(backend)
	for _, eps := range []float64{0.01, 0.001} {
		for name, data := range dists(*seed) {
			validateFrequency(w, eng, name, eps, data)
			validateQuantile(w, eng, name, eps, data)
		}
	}
	// Sliding windows are pricier; validate on a subset.
	for name, data := range dists(*seed + 10) {
		validateSlidingFrequency(w, eng, name, 0.01, data, *n/5)
		validateSlidingQuantile(w, eng, name, 0.01, data, *n/5)
	}
	w.Flush()
	if failed {
		fmt.Fprintln(os.Stderr, "validate: BOUND VIOLATION")
		os.Exit(1)
	}
	fmt.Println("all measured errors within advertised bounds")
}

func report(w *tabwriter.Writer, est, dist string, eps, measured, bound float64) {
	ok := measured <= bound+1e-12
	if !ok {
		failed = true
	}
	fmt.Fprintf(w, "%s\t%s\t%g\t%.6f\t%.6f\t%v\t\n", est, dist, eps, measured, bound, ok)
}

func validateFrequency(w *tabwriter.Writer, eng *gpustream.Engine[float32], dist string, eps float64, data []float32) {
	est := eng.NewFrequencyEstimator(eps)
	est.ProcessSlice(data)
	exact := map[float32]int64{}
	for _, v := range data {
		exact[v]++
	}
	n := float64(len(data))
	worst := 0.0
	for v, truth := range exact {
		got := est.Estimate(v)
		if got > truth {
			report(w, "frequency", dist, eps, math.Inf(1), eps) // overcount: impossible
			return
		}
		if d := float64(truth-got) / n; d > worst {
			worst = d
		}
	}
	report(w, "frequency", dist, eps, worst, eps)
}

// rankError measures the normalized rank distance of value got from target
// rank r within sorted reference ref.
func rankError(ref []float32, got float32, r int) float64 {
	lo := sort.Search(len(ref), func(i int) bool { return ref[i] >= got }) + 1
	hi := sort.Search(len(ref), func(i int) bool { return ref[i] > got })
	var d int
	switch {
	case r < lo:
		d = lo - r
	case r > hi:
		d = r - hi
	}
	return float64(d) / float64(len(ref))
}

func validateQuantile(w *tabwriter.Writer, eng *gpustream.Engine[float32], dist string, eps float64, data []float32) {
	est := eng.NewQuantileEstimator(eps, int64(len(data)))
	est.ProcessSlice(data)
	ref := append([]float32(nil), data...)
	cpusort.Quicksort(ref)
	worst := 0.0
	for p := 0; p <= 40; p++ {
		phi := float64(p) / 40
		r := int(math.Ceil(phi * float64(len(ref))))
		if r < 1 {
			r = 1
		}
		if e := rankError(ref, est.Query(phi), r); e > worst {
			worst = e
		}
	}
	report(w, "quantile", dist, eps, worst, eps)
}

func validateSlidingFrequency(w *tabwriter.Writer, eng *gpustream.Engine[float32], dist string, eps float64, data []float32, win int) {
	est := eng.NewSlidingFrequency(eps, win)
	est.ProcessSlice(data)
	exact := map[float32]int64{}
	for _, v := range data[len(data)-win:] {
		exact[v]++
	}
	worst := 0.0
	for v, truth := range exact {
		got := est.Estimate(v)
		if d := math.Abs(float64(got-truth)) / float64(win); d > worst {
			worst = d
		}
	}
	report(w, "sliding-frequency", dist, eps, worst, eps)
}

func validateSlidingQuantile(w *tabwriter.Writer, eng *gpustream.Engine[float32], dist string, eps float64, data []float32, win int) {
	est := eng.NewSlidingQuantile(eps, win)
	est.ProcessSlice(data)
	ref := append([]float32(nil), data[len(data)-win:]...)
	cpusort.Quicksort(ref)
	worst := 0.0
	for p := 0; p <= 20; p++ {
		phi := float64(p) / 20
		r := int(math.Ceil(phi * float64(win)))
		if r < 1 {
			r = 1
		}
		if e := rankError(ref, est.Query(phi), r); e > worst {
			worst = e
		}
	}
	report(w, "sliding-quantile", dist, eps, worst, eps)
}
