// Quickstart: sort a stream on the simulated GPU, then answer
// epsilon-approximate frequency and quantile queries over it.
package main

import (
	"fmt"

	"gpustream"
	"gpustream/internal/stream"
)

func main() {
	// A million Zipf-distributed item ids: a few items dominate.
	data := stream.Zipf(1_000_000, 1.2, 10_000, 42)

	// The engine binds everything to a sorting backend; BackendGPU runs
	// the paper's PBSN sorter on the GPU simulator.
	eng := gpustream.New(gpustream.BackendGPU)

	// 1. Sorting: the primitive everything else is built on.
	sample := append([]float32(nil), data[:100_000]...)
	eng.Sort(sample)
	fmt.Printf("sorted %d values; min=%v max=%v\n", len(sample), sample[0], sample[len(sample)-1])
	if b, ok := eng.LastSortBreakdown(); ok {
		fmt.Printf("modeled GeForce-6800 cost: compute=%v transfer=%v setup=%v\n",
			b.Compute, b.Transfer, b.Setup)
	}

	// 2. Frequency estimation: which items exceed 1% of the stream?
	freq := eng.NewFrequencyEstimator(0.001) // estimates within 0.1% of N
	freq.ProcessSlice(data)
	fmt.Println("heavy hitters (support 1%):")
	for _, it := range freq.Query(0.01) {
		fmt.Printf("  item %v appears >= %d times\n", it.Value, it.Freq)
	}

	// 3. Quantile estimation: the stream's median and tails.
	quant := eng.NewQuantileEstimator(0.001)
	quant.ProcessSlice(data)
	for _, phi := range []float64{0.5, 0.9, 0.99} {
		fmt.Printf("phi=%.2f quantile: %v\n", phi, quant.Query(phi))
	}
}
