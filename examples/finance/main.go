// Finance: streaming latency/price percentiles over sliding windows — the
// finance-logs use case from the paper's introduction. A synthetic
// order-latency stream with a regime change (a slowdown partway through)
// is monitored with sliding-window quantiles: p50/p95/p99 react as the
// window slides over the slowdown, while whole-history quantiles smear it.
package main

import (
	"fmt"
	"math"

	"gpustream"
	"gpustream/internal/stream"
)

const (
	events     = 1_500_000
	windowSize = 250_000
	eps        = 0.001
)

// syntheticLatencies builds a lognormal-ish latency stream (microseconds)
// with a slowdown regime in the middle third.
func syntheticLatencies() []float32 {
	base := stream.Gaussian(events, 4.0, 0.4, 21) // log-latency
	out := make([]float32, events)
	for i, v := range base {
		lat := float32(math.Exp(float64(v))) // ~ e^4 = 55us median
		if i > events/3 && i < 2*events/3 {
			lat *= 3 // slowdown regime
		}
		out[i] = lat
	}
	return out
}

func main() {
	lat := syntheticLatencies()
	eng := gpustream.New(gpustream.BackendGPU)
	sla := eng.NewSlidingQuantile(eps, windowSize)

	fmt.Printf("monitoring %d latency events; window=%d, eps=%g\n", events, windowSize, eps)
	fmt.Println("t          p50(us)   p95(us)   p99(us)")

	const step = 250_000
	for off := 0; off < len(lat); off += step {
		end := off + step
		if end > len(lat) {
			end = len(lat)
		}
		sla.ProcessSlice(lat[off:end])
		fmt.Printf("%-9d  %8.1f  %8.1f  %8.1f\n",
			end, sla.Query(0.50), sla.Query(0.95), sla.Query(0.99))
	}

	// Contrast with whole-history quantiles, which dilute the slowdown.
	hist := eng.NewQuantileEstimator(eps)
	hist.ProcessSlice(lat)
	fmt.Printf("\nwhole-history: p50=%.1f p95=%.1f p99=%.1f (slowdown diluted)\n",
		hist.Query(0.50), hist.Query(0.95), hist.Query(0.99))

	// A tail-risk style probe on the most recent 100K events only.
	fmt.Printf("last-100K p99.5: %.1f us\n", sla.WindowSummary(100_000).Query(0.995))
}
