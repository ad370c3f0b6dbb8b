package shard

import (
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// Quantile answers eps-approximate quantile queries over a stream ingested
// in parallel by K shard workers. Each shard runs the exponential-histogram
// GK estimator with an eps/2 budget; queries merge the shard summaries,
// which by the GK merge rule stay eps/2-approximate over the union — within
// the user's eps with headroom to spare (DESIGN.md §14).
//
// With a single shard fixed for the estimator's lifetime the shard runs at
// the full eps and the merged view is that shard's own, so K=1 output is
// bit-identical to the serial quantile.Estimator fed the same stream.
//
// Ingestion, lifecycle, elasticity and telemetry are the shared core's
// (DESIGN.md §14). Queries and snapshots are safe against concurrent
// ingestion: each shard estimator is internally synchronized by its
// pipeline core.
type Quantile[T sorter.Value] struct {
	core[T, *quantile.Estimator[T], *quantile.Snapshot[T]]
}

// NewQuantile returns a sharded eps-approximate quantile estimator.
// shards <= 0 selects runtime.GOMAXPROCS(0).
// newSorter is invoked once per shard so stateful backends (the GPU
// simulator) are never shared across goroutines.
func NewQuantile[T sorter.Value](eps float64, shards int, newSorter func() sorter.Sorter[T], cfg Config[T]) *Quantile[T] {
	k := Resolve(shards)
	shardEps := QuantileEps(eps, k, cfg.Rescaler != nil)
	q := &Quantile[T]{}
	q.start(eps, k, cfg, family[T, *quantile.Estimator[T], *quantile.Snapshot[T]]{
		newShard: func() *quantile.Estimator[T] {
			return quantile.NewEstimator(shardEps, 0, newSorter(), cfg.Pipeline...)
		},
		merge: quantile.MergeSnapshots[T],
		size:  (*quantile.Estimator[T]).SummaryEntries,
	})
	return q
}

// QuantileEps is the budget each of k quantile shards runs at: eps/2 when
// summaries will be merged, the full eps for one static shard. The halved
// budget is what makes the merge rule eps-safe at any shard count, so an
// elastic estimator pays it from the start even at K=1: a later scale-up
// then never widens the merged error.
func QuantileEps(eps float64, k int, elastic bool) float64 {
	if k > 1 || elastic {
		return eps / 2
	}
	return eps
}

// ShardEps reports the per-shard error budget (eps/2 for K > 1 and for any
// elastic estimator).
func (q *Quantile[T]) ShardEps() float64 { return q.shard0().Eps() }

// Summary flushes and returns the merged cross-shard summary (nil before
// any data arrives), mainly for validation harnesses.
func (q *Quantile[T]) Summary() *summary.Summary[T] { return q.merged().Summary() }

// Snapshot returns an immutable point-in-time view over the merged shard
// summaries, at the end-to-end eps. With K=1 the view is bit-identical to
// the serial estimator's.
func (q *Quantile[T]) Snapshot() pipeline.View[T] {
	return quantile.NewSnapshot(q.Summary(), q.eps)
}

// nonEmpty returns the merged summary, panicking on an empty stream.
func (q *Quantile[T]) nonEmpty() *summary.Summary[T] {
	s := q.Summary()
	if s == nil || s.N == 0 {
		panic("shard: quantile query on empty stream")
	}
	return s
}

// Query returns an eps-approximate phi-quantile of everything ingested so
// far. It panics if the stream is empty.
func (q *Quantile[T]) Query(phi float64) T { return q.nonEmpty().Query(phi) }

// QueryRank returns a value whose rank is within eps*N of r. It panics if
// the stream is empty.
func (q *Quantile[T]) QueryRank(r int64) T { return q.nonEmpty().QueryRank(r) }

// SummaryEntries reports the total summary entries retained across shards
// (plus the retired accumulator of an elastic estimator), the estimator's
// memory footprint.
func (q *Quantile[T]) SummaryEntries() int { return q.retainedSize() }
