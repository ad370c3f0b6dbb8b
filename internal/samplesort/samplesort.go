// Package samplesort is the host-native window-sort backend. The name is
// kept from the deterministic sample sort it used to be — it is the backend
// string in every committed spec ("backend":"samplesort"), the constructor
// benchmark/ calls, and the label in EXPERIMENTS.md's modeled figures — but
// the body is now the key-radix kernel of internal/cpusort: every value the
// stack sorts is a fixed-width 32- or 64-bit key, the regime where radix
// beats comparison sorting at every window size (DESIGN.md §18 has the
// table and why the splitter/classify/scatter partition was removed rather
// than kept for large windows). This package adds what a pipeline backend
// needs around the kernel: per-sort statistics and the async surface.
//
// The sort is fully deterministic: the same input always takes the same
// passes and yields the same stats. The modeled-2004 cost of this backend
// (perfmodel.SampleSortTime) still prices the comparison sample sort, so the
// paper-figure reproductions do not move with the host implementation.
//
// One instance serves one pipeline: windows of at most cpusort.StackKeys
// values sort out of the calling goroutine's stack and the instance retains
// nothing; above that it keeps key buffers sized to the largest window seen.
package samplesort

import (
	"gpustream/internal/cpusort"
	"gpustream/internal/sorter"
)

// SortStats records what the kernel did in one sort. Passes — and with it
// the two traffic counters — depends on the data: a digit every key shares
// is skipped, so order-isomorphic inputs of different types need not agree.
type SortStats struct {
	// N is the number of values sorted.
	N int
	// Passes is the number of 8-bit scatter passes executed: 0 for a window
	// below the comparison-sort cutoff, at most the key width in bytes.
	Passes int
	// MoveOps counts keys scattered: N per executed pass (the encode and
	// decode loops around the passes are not counted).
	MoveOps int64
	// BytesMoved is MoveOps at the key width (4 or 8 bytes).
	BytesMoved int64
}

// Sorter is the host-native backend. One instance per pipeline: it is not
// safe for concurrent Sorts.
type Sorter[T sorter.Value] struct {
	radix    cpusort.Radix[T]
	keyBytes int64
	last     SortStats
}

// NewSorter returns a sorter for element type T.
func NewSorter[T sorter.Value]() *Sorter[T] {
	return &Sorter[T]{keyBytes: int64(sorter.KeyBits[T]() / 8)}
}

// Name implements sorter.Sorter.
func (s *Sorter[T]) Name() string { return "samplesort" }

// LastStats returns the operation counts of the most recent Sort.
func (s *Sorter[T]) LastStats() SortStats { return s.last }

// Retained reports the bytes of key buffer the sorter holds between calls.
func (s *Sorter[T]) Retained() int { return s.radix.Retained() }

// Sort orders data ascending in place.
func (s *Sorter[T]) Sort(data []T) {
	n, passes := len(data), s.radix.Sort(data)
	moves := int64(n) * int64(passes)
	s.last = SortStats{N: n, Passes: passes, MoveOps: moves, BytesMoved: moves * s.keyBytes}
}

var (
	_ sorter.Sorter[float32] = (*Sorter[float32])(nil)
	_ sorter.Sorter[uint64]  = (*Sorter[uint64])(nil)
)
