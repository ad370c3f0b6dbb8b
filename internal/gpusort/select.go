package gpusort

import (
	"fmt"

	"gpustream/internal/gpu"
	"gpustream/internal/sorter"
)

// KthLargest returns the k-th largest value of data (k = 1 is the maximum)
// using the occlusion-query selection algorithm of the authors' companion
// database-operations work: binary search over the element type's
// order-preserving key space, one GPU counting pass per probe. It runs in at
// most KeyBits passes of n fragments each — O(n log |domain|) fragment work
// with no sorting — and is the primitive behind the paper's claim that its
// machinery extends to k-th largest queries.
//
// It panics unless 1 <= k <= len(data).
func KthLargest[T sorter.Value](data []T, k int) T {
	v, _ := KthLargestWithStats(data, k)
	return v
}

// KthLargestWithStats is KthLargest, also returning the GPU counters of the
// selection for the performance model.
func KthLargestWithStats[T sorter.Value](data []T, k int) (T, gpu.Stats) {
	n := len(data)
	if k < 1 || k > n {
		panic(fmt.Sprintf("gpusort: k=%d out of [1, %d]", k, n))
	}
	// Pack into a single channel; the counting pass tests all four
	// channels at once, so the other three are parked at the type's
	// minimum where they can never outrank real data.
	w, h := gpu.TextureDims(n)
	tex := gpu.NewTexture[T](w, h)
	tex.Fill(sorter.MinValue[T]())
	tex.LoadChannel(0, data)
	dev := gpu.NewDevice[T](w, h)
	dev.Upload(tex)
	dev.BindTexture(tex)

	// Binary search on the order-preserving key space: find the smallest
	// key u whose value has fewer than k strictly-greater elements; that
	// value is the k-th largest. 32-bit types search a 32-bit key space,
	// 64-bit types a 64-bit one, so probe counts differ only by key width,
	// never by value distribution.
	count := func(v T) int64 { return dev.CountGreater(v)[0] }
	var lo, hi uint64
	if sorter.KeyBits[T]() == 32 {
		hi = 1<<32 - 1
	} else {
		hi = 1<<64 - 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if count(sorter.FromOrderedKey[T](mid)) <= int64(k-1) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return sorter.FromOrderedKey[T](lo), dev.Stats()
}
