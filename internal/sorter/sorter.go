// Package sorter defines the interface between the stream-mining algorithms
// and the sorting backends, the ordered-value constraint the whole stack is
// generic over, and the codec that says every per-type fact about a value
// (codec.go). Sorting dominates the runtime of the paper's summary
// construction (70-95% on the CPU, Section 3.2), so the estimators are
// parameterized over a Sorter: the GPU-simulated PBSN sorter, the GPU
// bitonic baseline, or the CPU quicksorts.
//
// The paper's algorithms are comparator-based — PBSN, lossy counting, GK
// summaries and exponential-histogram windows only ever compare values — so
// every layer is generic over Value, the six ordered numeric types a stream
// can carry. float32 remains the paper-faithful default (the 2004 hardware
// blended float32 render targets); the other instantiations open integer
// and double-precision workloads on the same substrate.
package sorter

// Value is the ordered-numeric constraint every layer of the stack is
// generic over: stream values, sorter elements, summary entries, histogram
// bins and query results all carry one of these types. All six types are
// totally ordered by < modulo NaN for the float instantiations. The library
// does not check for NaN: every estimator accepts it, and their guarantees
// assume NaN-free input. The service's decoders reject non-finite rows.
//
// Where < leaves the order open, the backends differ. The comparison sorts
// place -0 and +0 in input-dependent order and NaNs arbitrarily. The
// key-radix "samplesort" backend orders by OrderedKey, which is total: -0
// before +0, NaNs with the sign bit set before -Inf, all other NaNs after
// +Inf — from cpusort.RadixMinN values up (twice that for 64-bit types);
// shorter slices take the comparison path.
type Value interface {
	~float32 | ~float64 | ~uint32 | ~uint64 | ~int32 | ~int64
}

// Sorter sorts a slice of T values in ascending order, in place.
type Sorter[T Value] interface {
	// Sort orders data ascending in place.
	Sort(data []T)
	// Name identifies the backend in benchmark output.
	Name() string
}

// Func adapts a plain function to the Sorter interface.
type Func[T Value] struct {
	SortFunc func([]T)
	Label    string
}

// Sort implements Sorter.
func (f Func[T]) Sort(data []T) { f.SortFunc(data) }

// Name implements Sorter.
func (f Func[T]) Name() string { return f.Label }
