package cpusort

import "gpustream/internal/sorter"

// QuicksortSorter is the serial quicksort baseline ("MSVC qsort" analog in
// the paper's Figure 3).
type QuicksortSorter[T sorter.Value] struct{}

// Sort implements sorter.Sorter.
func (QuicksortSorter[T]) Sort(data []T) { Quicksort(data) }

// Name implements sorter.Sorter.
func (QuicksortSorter[T]) Name() string { return "cpu-quicksort" }

// ParallelSorter is the multi-threaded quicksort baseline (the "Intel
// compiler with Hyper-Threading" analog in the paper's Figure 3).
type ParallelSorter[T sorter.Value] struct {
	// Workers is the goroutine budget; 0 means DefaultWorkers().
	Workers int
}

// Sort implements sorter.Sorter.
func (s ParallelSorter[T]) Sort(data []T) {
	w := s.Workers
	if w == 0 {
		w = DefaultWorkers()
	}
	ParallelQuicksort(data, w)
}

// Name implements sorter.Sorter.
func (s ParallelSorter[T]) Name() string { return "cpu-quicksort-ht" }

var (
	_ sorter.Sorter[float32] = QuicksortSorter[float32]{}
	_ sorter.Sorter[uint64]  = QuicksortSorter[uint64]{}
	_ sorter.Sorter[float32] = ParallelSorter[float32]{}
	_ sorter.Sorter[float64] = ParallelSorter[float64]{}
)
