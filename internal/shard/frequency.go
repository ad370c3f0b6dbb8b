package shard

import (
	"fmt"

	"gpustream/internal/frequency"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// Frequency answers eps-approximate frequency queries over a stream
// ingested in parallel by K shard workers, each running an independent
// lossy-counting estimator at the full eps budget. Lossy-counting error is
// additive across disjoint substreams — each shard undercounts by at most
// eps*N_i, so the merged estimate undercounts by at most eps*N — which
// preserves the no-false-negative guarantee of the serial estimator at any
// shard count and under any reshard schedule (DESIGN.md §14).
//
// With a single shard, queries delegate directly to the underlying
// estimator, so K=1 output is bit-identical to the serial
// frequency.Estimator fed the same stream.
//
// Ingestion, lifecycle, elasticity and telemetry are the shared core's
// (DESIGN.md §14). Queries and snapshots are safe against concurrent
// ingestion: each shard estimator is internally synchronized by its
// pipeline core.
type Frequency[T sorter.Value] struct {
	core[T, *frequency.Estimator[T], *frequency.Snapshot[T]]
}

// NewFrequency returns a sharded eps-approximate frequency estimator.
// shards <= 0 selects runtime.GOMAXPROCS(0). newSorter is invoked once per
// shard so stateful backends (the GPU simulator) are never shared across
// goroutines.
func NewFrequency[T sorter.Value](eps float64, shards int, newSorter func() sorter.Sorter[T], cfg Config[T]) *Frequency[T] {
	fq := &Frequency[T]{}
	fq.start(eps, Resolve(shards), cfg, family[T, *frequency.Estimator[T], *frequency.Snapshot[T]]{
		newShard: func() *frequency.Estimator[T] {
			return frequency.NewEstimator(eps, newSorter(), cfg.Pipeline...)
		},
		merge: frequency.MergeSnapshots[T],
		size:  (*frequency.Estimator[T]).SummarySize,
	})
	return fq
}

// Snapshot returns an immutable point-in-time view over the merged shard
// summaries. With K=1 the view is bit-identical to the serial estimator's.
func (fq *Frequency[T]) Snapshot() pipeline.View[T] { return fq.merged() }

// Query returns every element whose merged estimated frequency is at least
// (s - eps) * N, ordered by decreasing frequency. The result has no false
// negatives: any element with true frequency >= s*N is present.
func (fq *Frequency[T]) Query(s float64) []frequency.Item[T] {
	if s < 0 || s > 1 {
		panic(fmt.Sprintf("shard: support %v out of [0, 1]", s))
	}
	// One shard, fixed for the estimator's lifetime (without a rescaler the
	// shard set never changes): delegate, sparing the estimator the
	// copy-on-write a snapshot would cost it.
	if fq.rescaler == nil && len(fq.ests) == 1 {
		fq.Flush()
		return fq.ests[0].Query(s)
	}
	return fq.merged().Query(s)
}

// Estimate returns the merged estimated frequency of v (0 if no shard
// tracks it). Estimates never exceed the true count and undercount it by at
// most eps*N.
func (fq *Frequency[T]) Estimate(v T) int64 {
	fq.Flush()
	fq.mu.RLock()
	defer fq.mu.RUnlock()
	var total int64
	for _, est := range fq.ests {
		total += est.Estimate(v)
	}
	if fq.retired != nil {
		total += fq.retired.Estimate(v)
	}
	return total
}

// TopK returns the k elements with the highest merged estimated
// frequencies, ordered by decreasing frequency.
func (fq *Frequency[T]) TopK(k int) []frequency.Item[T] { return pipeline.TopK(fq.Query, k) }

// SummarySize reports the total summary entries retained across shards
// (plus the retired accumulator of an elastic estimator).
func (fq *Frequency[T]) SummarySize() int { return fq.retainedSize() }
