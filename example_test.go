package gpustream_test

import (
	"fmt"

	"gpustream"
)

// ExampleEngine_Sort sorts a slice on the simulated GPU.
func ExampleEngine_Sort() {
	eng := gpustream.New(gpustream.BackendGPU)
	data := []float32{3, 1, 4, 1, 5, 9, 2, 6}
	eng.Sort(data)
	fmt.Println(data)
	// Output: [1 1 2 3 4 5 6 9]
}

// ExampleEngine_NewFrequencyEstimator finds items above a support threshold.
func ExampleEngine_NewFrequencyEstimator() {
	eng := gpustream.New(gpustream.BackendGPU)
	est := eng.NewFrequencyEstimator(0.01)
	for i := 0; i < 900; i++ {
		est.Process(7) // item 7 dominates
	}
	for i := 0; i < 100; i++ {
		est.Process(float32(i % 10 * 100))
	}
	for _, item := range est.Query(0.5) {
		fmt.Printf("item %v appears at least %d times\n", item.Value, item.Freq)
	}
	// Output: item 7 appears at least 900 times
}

// ExampleEngine_NewQuantileEstimator answers quantile queries within eps.
func ExampleEngine_NewQuantileEstimator() {
	eng := gpustream.New(gpustream.BackendGPU)
	est := eng.NewQuantileEstimator(0.01, 1000)
	for i := 1; i <= 1000; i++ {
		est.Process(float32(i))
	}
	fmt.Println(est.Query(0.5))
	// Output: 496
}

// ExampleKthLargest selects without sorting, via GPU counting passes.
func ExampleKthLargest() {
	fmt.Println(gpustream.KthLargest([]float32{10, 40, 30, 20}, 2))
	// Output: 30
}

// ExampleEngine_NewSlidingQuantile queries the most recent elements only.
func ExampleEngine_NewSlidingQuantile() {
	eng := gpustream.New(gpustream.BackendCPU)
	est := eng.NewSlidingQuantile(0.01, 100)
	for i := 0; i < 1000; i++ {
		est.Process(float32(i))
	}
	// Only 900..999 remain in the window; the median is ~950.
	med := est.Query(0.5)
	fmt.Println(med >= 945 && med <= 955)
	// Output: true
}
