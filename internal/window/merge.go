package window

import (
	"math"

	"gpustream/internal/histogram"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// Cross-process merging of sliding-window snapshots. When a logical stream
// is partitioned across P ingest processes, each process's window covers the
// most recent W_i elements of its partition; the merged snapshot covers
// their union — a combined window of W = sum W_i elements — so a fan-in
// aggregator answers "the recent stream" queries over all partitions at
// once. Error bounds compose exactly like the shard rules: histogram
// undercounts are additive and GK rank errors combine by the sensor rule, so
// the merged window is max(epsA, epsB)-approximate over its combined size
// (DESIGN.md §14).
//
// The merged snapshot collapses each input's pane ring into a single
// combined pane: per-partition pane boundaries have no global time order, so
// variable-span queries narrower than the combined window are not
// meaningful after a cross-process merge and the merged view answers whole-
// window queries.

// MergeFrequencySnapshots combines two sliding-frequency snapshots from
// disjoint stream partitions into one whole-window view over their union.
// The inputs are not mutated and may be used afterwards.
func MergeFrequencySnapshots[T sorter.Value](a, b *FrequencySnapshot[T]) *FrequencySnapshot[T] {
	binsA, coveredA := a.wholeWindow()
	binsB, coveredB := b.wholeWindow()
	return &FrequencySnapshot[T]{
		eps:          math.Max(a.eps, b.eps),
		w:            a.w + b.w,
		count:        a.count + b.count,
		partialBins:  histogram.Merge(binsA, binsB),
		partialCount: coveredA + coveredB,
	}
}

// MergeQuantileSnapshots combines two sliding-quantile snapshots from
// disjoint stream partitions into one whole-window view over their union.
// The inputs are not mutated and may be used afterwards.
func MergeQuantileSnapshots[T sorter.Value](a, b *QuantileSnapshot[T]) *QuantileSnapshot[T] {
	ma, mb := a.wholeWindow(), b.wholeWindow()
	merged := &QuantileSnapshot[T]{
		eps:   math.Max(a.eps, b.eps),
		w:     a.w + b.w,
		count: a.count + b.count,
	}
	switch {
	case ma == nil || ma.N == 0:
		merged.partial = mb
	case mb == nil || mb.N == 0:
		merged.partial = ma
	default:
		merged.partial = summary.Merge(ma, mb)
	}
	return merged
}
