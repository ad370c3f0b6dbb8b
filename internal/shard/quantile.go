package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gpustream/internal/perfmodel"
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// Quantile answers eps-approximate quantile queries over a stream ingested
// in parallel by K shard workers. Each shard runs the exponential-histogram
// GK estimator with an eps/2 budget; queries merge the shard summaries,
// which by the GK merge rule stay eps/2-approximate over the union — within
// the user's eps with headroom to spare (DESIGN.md section 7).
//
// With a single shard the estimator runs at the full eps and delegates
// queries directly, so K=1 output is bit-identical to the serial
// quantile.Estimator fed the same stream.
//
// Queries and snapshots are safe against concurrent ingestion: each shard
// estimator is internally synchronized by its pipeline core.
type Quantile[T sorter.Value] struct {
	pool *pool[T]
	eps  float64

	// mu guards the elastic shard set: ests/tuners mutate when a Rescaler
	// commands a new count. Queries take the read side; rescales (rare, on
	// the ingestion goroutine) take the write side. Lock order is always
	// family mu -> pool mu -> estimator core locks.
	mu       sync.RWMutex
	ests     []*quantile.Estimator[T]
	tuners   []pipeline.Tuner[T] // per-shard tuners, empty without WithTunerFactory
	mkEst    func() *quantile.Estimator[T]
	newTuner func() pipeline.Tuner[T]

	// Elastic state: rescaler owns the shard count; retired accumulates the
	// folded snapshots of drained shards (scale-down) and retiredStats their
	// telemetry, so queries and stats cover the whole ingested stream.
	rescaler     Rescaler
	sinceObs     atomic.Int64
	retired      *quantile.Snapshot[T]
	retiredStats pipeline.Stats

	queryMergeOps atomic.Int64
}

// NewQuantile returns a sharded eps-approximate quantile estimator.
// capacity is accepted for compatibility and ignored, as the shard
// estimators ignore it. shards <= 0 selects runtime.GOMAXPROCS(0).
// newSorter is invoked once per shard so stateful backends (the GPU
// simulator) are never shared across goroutines.
func NewQuantile[T sorter.Value](eps float64, capacity int64, shards int, newSorter func() sorter.Sorter[T], opts ...Option) *Quantile[T] {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("shard: eps %v out of (0, 1)", eps))
	}
	k := Resolve(shards)
	cfg := parseOptions(opts)
	shardEps := eps
	if k > 1 || cfg.rescaler != nil {
		// The halved budget is what makes the merge rule eps-safe at any
		// shard count, so an elastic estimator pays it from the start even
		// at K=1: a later scale-up then never widens the merged error.
		shardEps = eps / 2
	}
	var estOpts []quantile.Option
	if cfg.async {
		estOpts = append(estOpts, quantile.WithAsync())
	}
	if cfg.window > 0 {
		estOpts = append(estOpts, quantile.WithWindow(cfg.window))
	}
	q := &Quantile[T]{eps: eps, rescaler: cfg.rescaler}
	q.newTuner = shardTuner[T](cfg)
	q.mkEst = func() *quantile.Estimator[T] {
		return quantile.NewEstimator(shardEps, capacity, newSorter(), estOpts...)
	}
	procs := make([]func([]T), k)
	for i := 0; i < k; i++ {
		procs[i] = q.addShardLocked()
	}
	q.pool = newPool(procs, cfg, func() {
		q.mu.RLock()
		defer q.mu.RUnlock()
		for _, est := range q.ests {
			_ = est.Close()
		}
	})
	return q
}

// addShardLocked builds one shard estimator (plus its tuner when a factory
// is configured) and returns the worker processor bound to it. The caller
// holds mu (or is the constructor). The pool never closes shard estimators
// while workers still hand them batches, so ingestion in the processor
// cannot fail.
func (q *Quantile[T]) addShardLocked() func([]T) {
	est := q.mkEst()
	if q.newTuner != nil {
		t := q.newTuner()
		est.SetTuner(t)
		q.tuners = append(q.tuners, t)
	}
	q.ests = append(q.ests, est)
	return func(b []T) { _ = est.ProcessSlice(b) }
}

// maybeRescale consults the rescaler roughly once per dispatched batch and
// applies its command. It runs on the ingestion goroutine — the pool's
// single writer — so removeWorkers' quiesce wait terminates: no new batches
// arrive while it blocks.
func (q *Quantile[T]) maybeRescale(n int64) {
	if q.rescaler == nil {
		return
	}
	if q.sinceObs.Add(n) < int64(q.pool.BatchSize()) {
		return
	}
	q.sinceObs.Store(0)
	if want := q.rescaler.Observe(q.pool.Count(), q.pool.Shards()); want > 0 {
		q.rescale(want)
	}
}

// rescale applies a commanded shard count. Scale-up spawns fresh shards at
// the same eps/2 budget every shard already runs; scale-down quiesces the
// pool, retires the tail shards through their close path, and folds their
// snapshots into the retained accumulator with the GK sensor merge rule —
// error-neutral, so the merged answer stays within eps under any schedule
// (DESIGN.md §16).
func (q *Quantile[T]) rescale(want int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	cur := len(q.ests)
	switch {
	case want > cur:
		procs := make([]func([]T), 0, want-cur)
		for len(q.ests) < want {
			procs = append(procs, q.addShardLocked())
		}
		if !q.pool.addWorkers(procs) {
			for _, est := range q.ests[cur:] {
				_ = est.Close()
			}
			q.ests = q.ests[:cur]
			if len(q.tuners) > cur {
				q.tuners = q.tuners[:cur]
			}
		}
	case want < cur && want >= 1:
		idle, ok := q.pool.removeWorkers(cur - want)
		if !ok {
			return
		}
		victims := q.ests[want:]
		q.ests = q.ests[:want]
		if len(q.tuners) > want {
			q.tuners = q.tuners[:want]
		}
		for i, est := range victims {
			_ = est.Flush()
			snap := est.Snapshot().(*quantile.Snapshot[T])
			st := est.Stats()
			if i < len(idle) {
				st.Idle += idle[i]
			}
			_ = est.Close()
			q.retiredStats.Add(st)
			if snap.Count() == 0 {
				continue
			}
			if q.retired == nil {
				q.retired = snap
			} else {
				q.retired = quantile.MergeSnapshots(q.retired, snap)
			}
		}
	}
}

// Eps reports the configured end-to-end error bound.
func (q *Quantile[T]) Eps() float64 { return q.eps }

// ShardEps reports the per-shard error budget (eps/2 for K > 1 and for any
// elastic estimator).
func (q *Quantile[T]) ShardEps() float64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.ests[0].Eps()
}

// Shards reports the number of shard workers.
func (q *Quantile[T]) Shards() int { return q.pool.Shards() }

// Count reports the number of stream elements ingested.
func (q *Quantile[T]) Count() int64 { return q.pool.Count() }

// Process ingests one stream element. After Close it returns an error
// wrapping pipeline.ErrClosed.
func (q *Quantile[T]) Process(v T) error {
	if err := q.pool.Process(v); err != nil {
		return err
	}
	q.maybeRescale(1)
	return nil
}

// ProcessSlice ingests a batch of stream elements. After Close it returns
// an error wrapping pipeline.ErrClosed. An elastic estimator chunks the
// slice at the dispatch batch size so the rescaler observes per-batch
// throughput even when the caller hands the whole stream in one call.
func (q *Quantile[T]) ProcessSlice(data []T) error {
	if q.rescaler == nil {
		return q.pool.ProcessSlice(data)
	}
	step := q.pool.BatchSize()
	for len(data) > 0 {
		n := min(step, len(data))
		if err := q.pool.ProcessSlice(data[:n]); err != nil {
			return err
		}
		q.maybeRescale(int64(n))
		data = data[n:]
	}
	return nil
}

// Flush dispatches buffered values and waits until every shard has absorbed
// its in-flight batches.
func (q *Quantile[T]) Flush() error { return q.pool.Flush() }

// Close drains and stops the shard workers with no deadline. The estimator
// remains queryable; further ingestion reports pipeline.ErrClosed.
func (q *Quantile[T]) Close() error { return q.pool.Close() }

// CloseContext is Close with a deadline: if ctx expires while the shards
// are still absorbing backpressure, the remaining hand-off is abandoned and
// the context error is returned wrapped. See pool.CloseContext.
func (q *Quantile[T]) CloseContext(ctx context.Context) error { return q.pool.CloseContext(ctx) }

// Summary flushes and returns the merged cross-shard summary (nil before
// any data arrives), mainly for validation harnesses.
func (q *Quantile[T]) Summary() *summary.Summary[T] { return q.snapshot() }

// snapshot flushes the pipeline and folds the per-shard snapshots with
// quantile.MergeSnapshots — the same GK sensor-rule merge the cross-process
// aggregation tree uses on marshaled snapshots — returning the merged
// summary. Each shard estimator synchronizes internally, so this is safe
// against concurrent ingestion; the result is immutable.
func (q *Quantile[T]) snapshot() *summary.Summary[T] {
	q.pool.Flush()
	q.mu.RLock()
	defer q.mu.RUnlock()
	if len(q.ests) == 1 && q.retired == nil {
		return q.ests[0].Summary()
	}
	acc := q.retired
	var mergeOps int64
	for _, est := range q.ests {
		s := est.Snapshot().(*quantile.Snapshot[T])
		if s.Count() == 0 {
			continue
		}
		if acc == nil {
			acc = s
			continue
		}
		acc = quantile.MergeSnapshots(acc, s)
		mergeOps += int64(acc.Size())
	}
	if mergeOps > 0 {
		q.queryMergeOps.Add(mergeOps)
	}
	if acc == nil {
		return nil
	}
	return acc.Summary()
}

// Snapshot returns an immutable point-in-time view over the merged shard
// summaries. With K=1 the view is bit-identical to the serial estimator's.
func (q *Quantile[T]) Snapshot() pipeline.View[T] {
	return quantile.NewSnapshot(q.snapshot(), q.eps)
}

// Query returns an eps-approximate phi-quantile of everything ingested so
// far. It panics if the stream is empty.
func (q *Quantile[T]) Query(phi float64) T {
	s := q.snapshot()
	if s == nil || s.N == 0 {
		panic("shard: quantile query on empty stream")
	}
	return s.Query(phi)
}

// QueryRank returns a value whose rank is within eps*N of r.
func (q *Quantile[T]) QueryRank(r int64) T {
	s := q.snapshot()
	if s == nil || s.N == 0 {
		panic("shard: quantile query on empty stream")
	}
	return s.QueryRank(r)
}

// SummaryEntries reports the total summary entries retained across shards
// (plus the retired accumulator of an elastic estimator), the estimator's
// memory footprint.
func (q *Quantile[T]) SummaryEntries() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	total := 0
	for _, est := range q.ests {
		total += est.SummaryEntries()
	}
	if q.retired != nil {
		total += q.retired.Size()
	}
	return total
}

// Stats sums the unified pipeline telemetry across shards, including each
// worker's channel-wait time as Idle. Because shards run concurrently, the
// stage durations reflect total work, not wall clock.
func (q *Quantile[T]) Stats() pipeline.Stats {
	var agg pipeline.Stats
	for _, st := range q.PerShardStats() {
		agg.Add(st)
	}
	q.mu.RLock()
	agg.Add(q.retiredStats)
	q.mu.RUnlock()
	return agg
}

// PerShardStats exposes each live shard's unified pipeline telemetry; the
// shard worker's channel-wait time is folded in as Idle. Shards retired by
// a scale-down are not listed — their totals live on in Stats.
func (q *Quantile[T]) PerShardStats() []pipeline.Stats {
	q.mu.RLock()
	defer q.mu.RUnlock()
	idle := q.pool.idleTimes()
	out := make([]pipeline.Stats, len(q.ests))
	for i, est := range q.ests {
		st := est.Stats()
		if i < len(idle) {
			st.Idle += idle[i]
		}
		out[i] = st
	}
	return out
}

// QueryMergeOps reports the cumulative summary entries visited by
// query-time cross-shard merges.
func (q *Quantile[T]) QueryMergeOps() int64 { return q.queryMergeOps.Load() }

// Knobs reports shard 0's currently selected sorter and window size (all
// shards run the same configuration and converge on the same telemetry;
// shard 0 is never retired by a rescale).
func (q *Quantile[T]) Knobs() (sorter.Sorter[T], int) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.ests[0].Knobs()
}

// Async reports shard 0's commanded execution mode.
func (q *Quantile[T]) Async() bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.ests[0].Async()
}

// Tuners exposes the tuners of the live shards attached via
// WithTunerFactory, in shard order; empty when none were attached.
func (q *Quantile[T]) Tuners() []pipeline.Tuner[T] {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return append([]pipeline.Tuner[T](nil), q.tuners...)
}

// ModeledTime converts the per-shard counters into modeled 2004-testbed
// time for a K-way sharded run: concurrent shard ingestion plus the serial
// query-time merge.
func (q *Quantile[T]) ModeledTime(m perfmodel.Model, backend perfmodel.Backend) perfmodel.PipelineBreakdown {
	return m.ShardedPipelineTime(q.PerShardStats(), backend, q.QueryMergeOps())
}
