package quantile

import (
	"math"

	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// MergeSnapshots combines two quantile snapshots over disjoint substreams
// into one over their union, by the Greenwald-Khanna sensor-network
// rank-combination rule (summary.Merge): the merged summary is
// max(epsA, epsB)-approximate over NA+NB elements, so merging is
// error-preserving at any tree height (DESIGN.md §14).
//
// It is the cross-process form of the shard merge rule: sharded ingestion
// folds it over its per-shard snapshots, and the aggregation tree folds it
// over per-process snapshots exchanged through the wire format. The inputs
// are not mutated and may be used afterwards; an input covering an empty
// stream passes the other through.
func MergeSnapshots[T sorter.Value](a, b *Snapshot[T]) *Snapshot[T] {
	eps := math.Max(a.eps, b.eps)
	switch {
	case a.sum == nil || a.sum.N == 0:
		return &Snapshot[T]{sum: b.sum, eps: eps}
	case b.sum == nil || b.sum.N == 0:
		return &Snapshot[T]{sum: a.sum, eps: eps}
	}
	return &Snapshot[T]{sum: summary.Merge(a.sum, b.sum), eps: eps}
}
