// Package cpusort implements the CPU sorting baselines the paper benchmarks
// against: a classic qsort-style quicksort (the "MSVC" baseline) and a
// multi-threaded quicksort standing in for the Intel compiler's
// hyper-threaded implementation. A heapsort fallback bounds the worst case
// (introsort-style), and k-way merging supports the GPU sorter's CPU-side
// combine of the four channel-sorted runs. Every routine is generic over the
// stack's ordered value types; comparison counts and recursion structure are
// identical across instantiations. radix.go holds the one non-comparison
// sort, the key-radix kernel that is the body of the samplesort backend.
package cpusort

import (
	"runtime"
	"sync"

	"gpustream/internal/sorter"
)

// insertionCutoff is the partition size below which quicksort switches to
// insertion sort; small partitions are cheaper to finish without recursion.
const insertionCutoff = 24

// Quicksort sorts data ascending in place using median-of-three pivoting
// with an insertion-sort cutoff and a depth-bounded heapsort fallback, the
// structure of a production qsort implementation.
func Quicksort[T sorter.Value](data []T) {
	quicksort(data, 2*log2ceil(len(data)))
}

func quicksort[T sorter.Value](data []T, depth int) {
	for len(data) > insertionCutoff {
		if depth == 0 {
			Heapsort(data)
			return
		}
		depth--
		p := partition(data)
		// Recurse on the smaller side, loop on the larger: O(log n) stack.
		if p < len(data)-p-1 {
			quicksort(data[:p], depth)
			data = data[p+1:]
		} else {
			quicksort(data[p+1:], depth)
			data = data[:p]
		}
	}
	InsertionSort(data)
}

// partition picks a median-of-three pivot, partitions data around it, and
// returns the pivot's final index.
func partition[T sorter.Value](data []T) int {
	n := len(data)
	mid := n / 2
	// Order data[0], data[mid], data[n-1]; the median ends up at data[mid].
	if data[mid] < data[0] {
		data[mid], data[0] = data[0], data[mid]
	}
	if data[n-1] < data[mid] {
		data[n-1], data[mid] = data[mid], data[n-1]
		if data[mid] < data[0] {
			data[mid], data[0] = data[0], data[mid]
		}
	}
	// Move the pivot out of the way.
	data[mid], data[n-2] = data[n-2], data[mid]
	pivot := data[n-2]
	i, j := 0, n-2
	for {
		for i++; data[i] < pivot; i++ {
		}
		for j--; data[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		data[i], data[j] = data[j], data[i]
	}
	data[i], data[n-2] = data[n-2], data[i]
	return i
}

// InsertionSort sorts data ascending in place; efficient for short or
// nearly-sorted inputs.
func InsertionSort[T sorter.Value](data []T) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		j := i - 1
		for j >= 0 && data[j] > v {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// Heapsort sorts data ascending in place. It is the depth-bound fallback for
// Quicksort and is also exposed for direct use.
func Heapsort[T sorter.Value](data []T) {
	n := len(data)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(data, i, n)
	}
	for end := n - 1; end > 0; end-- {
		data[0], data[end] = data[end], data[0]
		siftDown(data, 0, end)
	}
}

func siftDown[T sorter.Value](data []T, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && data[child+1] > data[child] {
			child++
		}
		if data[root] >= data[child] {
			return
		}
		data[root], data[child] = data[child], data[root]
		root = child
	}
}

// ParallelQuicksort sorts data ascending in place, splitting recursion
// across up to workers goroutines. With workers=2 it stands in for the
// paper's Intel-compiled hyper-threaded quicksort; workers<=1 degrades to
// the serial Quicksort.
func ParallelQuicksort[T sorter.Value](data []T, workers int) {
	if workers <= 1 || len(data) <= insertionCutoff {
		Quicksort(data)
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers-1)
	var rec func(d []T, depth int)
	rec = func(d []T, depth int) {
		for len(d) > insertionCutoff {
			if depth == 0 {
				Heapsort(d)
				return
			}
			depth--
			p := partition(d)
			left, right := d[:p], d[p+1:]
			if len(left) > len(right) {
				left, right = right, left
			}
			// Offload the smaller side if a worker slot is free and the
			// piece is big enough to amortize the goroutine.
			if len(left) > 4096 {
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					go func(d []T, depth int) {
						defer wg.Done()
						rec(d, depth)
						<-sem
					}(left, depth)
				default:
					rec(left, depth)
				}
			} else {
				rec(left, depth)
			}
			d = right
		}
		InsertionSort(d)
	}
	rec(data, 2*log2ceil(len(data)))
	wg.Wait()
}

// IsSorted reports whether data is in ascending order.
func IsSorted[T sorter.Value](data []T) bool {
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			return false
		}
	}
	return true
}

func log2ceil(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// DefaultWorkers reports the worker count used by the parallel sorter when
// the caller does not specify one: 2, matching a hyper-threaded Pentium IV,
// capped at the machine's parallelism.
func DefaultWorkers() int {
	w := 2
	if p := runtime.GOMAXPROCS(0); p < w {
		w = p
	}
	return w
}
