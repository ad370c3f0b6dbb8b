package gpustream

// The paper states (Section 1.2) that its approach "is also applicable to
// hierarchical heavy hitter and correlated sum aggregate queries"; this file
// exposes those two extensions plus the sensor-network aggregation model the
// quantile algorithm builds on, all bound to the engine's sorting backend.
//
// HHH estimation is generic over unsigned integer item types (hhh.Item:
// ~uint32 | ~uint64) and a method cannot introduce its own type parameter,
// so the HHH constructor is the free function NewHHHEstimator over the
// engine. The correlated-sum extension processes (float32, float64) pair
// streams; its constructor binds a fresh float32 sorter of the engine's
// backend whatever the engine's own element type.

import (
	"gpustream/internal/corrsum"
	"gpustream/internal/gpusort"
	"gpustream/internal/half"
	"gpustream/internal/hhh"
	"gpustream/internal/sensortree"
)

// HHHItem constrains the integer item types a prefix hierarchy aggregates.
type HHHItem = hhh.Item

// Re-exported extension types.
type (
	// HHHEstimator answers hierarchical heavy hitter queries over native
	// integer items.
	HHHEstimator[T HHHItem] = hhh.Estimator[T]
	// HHHPrefix is one reported hierarchical heavy hitter.
	HHHPrefix[T HHHItem] = hhh.Prefix[T]
	// Hierarchy maps items to their ancestors.
	Hierarchy[T HHHItem] = hhh.Hierarchy[T]
	// BitHierarchy is a fixed-stride prefix hierarchy over integer items.
	BitHierarchy[T HHHItem] = hhh.BitHierarchy[T]
	// Pair is one (key, value) element of a correlated-sum stream.
	Pair = corrsum.Pair
	// CorrelatedSum answers SUM(value) WHERE key <= t queries.
	CorrelatedSum = corrsum.Estimator
	// SensorNode is one sensor in an aggregation tree.
	SensorNode = sensortree.Node
	// SensorStats reports aggregation communication cost.
	SensorStats = sensortree.Stats
)

// NewBitHierarchy returns a prefix hierarchy over items of the given bit
// width aggregated stride bits at a time. The full native width is
// supported: 32 bits for uint32 items (IPv4 addresses), 64 for uint64.
func NewBitHierarchy[T HHHItem](bits, stride int) BitHierarchy[T] {
	return hhh.NewBitHierarchy[T](bits, stride)
}

// NewHHHEstimator returns an eps-approximate hierarchical heavy hitter
// estimator over the given hierarchy, sorting with a fresh instance of the
// engine's backend. Items flow through the stack natively as T — uint32
// hierarchies cover IPv4 outright, uint64 the full 64-bit key space — with
// no float encoding and no width cap.
func NewHHHEstimator[T HHHItem](e *Engine[T], h Hierarchy[T], eps float64) *HHHEstimator[T] {
	return hhh.NewEstimator(h, eps, e.newBackendSorter())
}

// NewCorrelatedSum returns an eps-approximate correlated-sum estimator for
// streams of up to capacity pairs, sorting with this engine's backend.
// Pair streams are (float32 key, float64 value) regardless of the engine's
// element type.
func (e *Engine[T]) NewCorrelatedSum(eps float64, capacity int64) *CorrelatedSum {
	return corrsum.NewEstimator(eps, capacity, newBackendSorter[float32](e.backend))
}

// AggregateSensorTree runs a Greenwald-Khanna sensor-network aggregation
// over the tree rooted at root with error eps, sorting each node's local
// float32 observations on this engine's backend. It returns the root
// quantile summary (queryable via Query/QueryRank) and communication
// statistics.
func (e *Engine[T]) AggregateSensorTree(root *SensorNode, eps float64) (*QuantileSummary[float32], SensorStats) {
	return sensortree.NewAggregator(eps, newBackendSorter[float32](e.backend)).Aggregate(root)
}

// KthLargest returns the k-th largest value of data (k = 1 is the maximum)
// using GPU occlusion-query selection: at most KeyBits counting passes (32
// or 64 by element type), no sort. The computation always runs on the GPU
// simulator regardless of the engine's sorting backend, since it is a
// GPU-native primitive.
func KthLargest[T Value](data []T, k int) T {
	return gpusort.KthLargest(data, k)
}

// Quantize16 rounds data in place through IEEE half precision, emulating
// the paper's 16-bit input streams and render targets. Order is preserved,
// so every estimator guarantee survives quantization (values simply
// coarsen to ~3 decimal digits).
func Quantize16(data []float32) { half.Quantize(data) }
