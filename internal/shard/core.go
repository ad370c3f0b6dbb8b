package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpustream/internal/perfmodel"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// shardEstimator is what the core needs of a per-shard estimator: the
// ingest shell every serial family promotes, and its snapshot.
type shardEstimator[T sorter.Value] interface {
	Snapshot() pipeline.View[T]
	ProcessSlice([]T) error
	Flush() error
	Close() error
	Stats() pipeline.Stats
	SetTuner(pipeline.Tuner[T])
	Knobs() (sorter.Sorter[T], int)
	Async() bool
}

// shardSnapshot is what the core needs of a family's immutable shard view,
// the concrete type behind its estimators' Snapshot. The zero value (a nil
// pointer) stands for "no snapshot yet".
type shardSnapshot interface {
	comparable
	Count() int64
	Size() int
}

// family is everything that distinguishes one sharded estimator family from
// another — the paper's observation that the two queries are one loop
// differing in the merge rule, applied to the sharded layer. The core never
// branches on which family it serves.
type family[T sorter.Value, E shardEstimator[T], S shardSnapshot] struct {
	// newShard builds one shard estimator. It owns the eps split: full eps
	// for lossy counting (undercounts are additive across disjoint
	// substreams), eps/2 for GK summaries whenever they will be merged.
	newShard func() E
	// merge folds two snapshots over disjoint substreams into one over
	// their union; it must be pure and error-neutral within the family's
	// budget (the rule the cross-process aggregation tree uses too).
	merge func(a, b S) S
	// size reports the summary entries a shard retains.
	size func(E) int
}

// core is the sharded estimator written once: the elastic shard set over
// the worker pool, rescaling with rollback, the retired accumulator,
// telemetry and the query-time flush-snapshot-fold. Frequency and Quantile
// embed it and add only their query surface. The pool is embedded in turn:
// Flush, Close, CloseContext, Count and Shards are its methods, promoted;
// Process and ProcessSlice are wrapped here to give the rescaler its turn.
//
// Lock order is always family mu -> pool mu -> estimator core locks.
type core[T sorter.Value, E shardEstimator[T], S shardSnapshot] struct {
	*pool[T]
	eps float64
	fam family[T, E, S]

	// mu guards the elastic shard set: ests mutates when a Rescaler
	// commands a new count. Queries take the read side; rescales (rare, on
	// the ingestion goroutine) take the write side.
	mu       sync.RWMutex
	ests     []E
	newTuner func() pipeline.Tuner[T] // Config.NewTuner, nil for untuned shards

	// Elastic state: rescaler owns the shard count; retired accumulates the
	// folded snapshots of drained shards (scale-down) and retiredStats their
	// telemetry, so queries and stats cover the whole ingested stream.
	rescaler     Rescaler
	sinceObs     atomic.Int64
	retired      S
	retiredStats pipeline.Stats

	queryMergeOps atomic.Int64
}

// start validates eps, builds the initial shard set and starts the pool.
func (c *core[T, E, S]) start(eps float64, shards int, cfg Config[T], fam family[T, E, S]) {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("shard: eps %v out of (0, 1)", eps))
	}
	c.eps, c.fam, c.rescaler, c.newTuner = eps, fam, cfg.Rescaler, cfg.NewTuner
	procs := make([]func([]T), shards)
	for i := range procs {
		procs[i] = c.addShardLocked()
	}
	c.pool = newPool(procs, cfg.Batch, func() {
		c.mu.RLock()
		defer c.mu.RUnlock()
		for _, est := range c.ests {
			_ = est.Close()
		}
	})
}

// addShardLocked builds one shard estimator (plus its tuner when a factory
// is configured) and returns the worker processor bound to it. The caller
// holds mu (or is the constructor). The pool never closes shard estimators
// while workers still hand them batches, so ingestion in the processor
// cannot fail.
func (c *core[T, E, S]) addShardLocked() func([]T) {
	est := c.fam.newShard()
	if c.newTuner != nil {
		est.SetTuner(c.newTuner())
	}
	c.ests = append(c.ests, est)
	return func(b []T) { _ = est.ProcessSlice(b) }
}

// maybeRescale consults the rescaler roughly once per dispatched batch and
// applies its command. It runs on the ingestion goroutine — the pool's
// single writer — so removeWorkers' quiesce wait terminates: no new batches
// arrive while it blocks.
func (c *core[T, E, S]) maybeRescale(n int64) {
	if c.rescaler == nil {
		return
	}
	if c.sinceObs.Add(n) < int64(c.pool.batch) {
		return
	}
	c.sinceObs.Store(0)
	if want := c.rescaler.Observe(c.pool.Count(), c.pool.Shards()); want > 0 {
		c.rescale(want)
	}
}

// rescale applies a commanded shard count. Scale-up spawns fresh shards at
// the budget every shard already runs (rolled back if the pool is closed);
// scale-down quiesces the pool, retires the tail shards through their close
// path, and folds their snapshots into the retired accumulator with the
// family's merge rule — so the merged answer stays within eps under any
// schedule (DESIGN.md §16).
func (c *core[T, E, S]) rescale(want int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := len(c.ests)
	switch {
	case want > cur:
		procs := make([]func([]T), 0, want-cur)
		for len(c.ests) < want {
			procs = append(procs, c.addShardLocked())
		}
		if !c.pool.addWorkers(procs) {
			for _, est := range c.ests[cur:] {
				_ = est.Close()
			}
			c.ests = c.ests[:cur]
		}
	case want < cur && want >= 1:
		idle, ok := c.pool.removeWorkers(cur - want)
		if !ok {
			return
		}
		victims := c.ests[want:]
		c.ests = c.ests[:want]
		for i, est := range victims {
			_ = est.Flush()
			snap := est.Snapshot().(S)
			st := est.Stats()
			if i < len(idle) {
				st.Idle += idle[i]
			}
			_ = est.Close()
			c.retiredStats.Add(st)
			c.retired, _ = c.fold(c.retired, snap)
		}
	}
}

// fold merges snap into acc and reports the entries the merge visited. An
// empty side contributes nothing and costs nothing: an empty (or not yet
// present) accumulator is replaced, an empty snapshot skipped.
func (c *core[T, E, S]) fold(acc, snap S) (S, int64) {
	var none S
	switch {
	case acc == none || acc.Count() == 0:
		return snap, 0
	case snap.Count() == 0:
		return acc, 0
	}
	acc = c.fam.merge(acc, snap)
	return acc, int64(acc.Size())
}

// merged flushes, snapshots every live shard, and folds the snapshots onto
// the retired accumulator. Each shard estimator synchronizes internally, so
// this is safe against concurrent ingestion; the result is immutable. With
// one shard and nothing retired it is that shard's own snapshot, which is
// what makes K=1 bit-identical to the serial estimator.
func (c *core[T, E, S]) merged() S {
	c.pool.Flush()
	c.mu.RLock()
	defer c.mu.RUnlock()
	acc := c.retired
	var ops int64
	for _, est := range c.ests {
		var n int64
		acc, n = c.fold(acc, est.Snapshot().(S))
		ops += n
	}
	c.queryMergeOps.Add(ops)
	return acc
}

// retainedSize reports the total summary entries retained across shards
// plus the retired accumulator of an elastic estimator.
func (c *core[T, E, S]) retainedSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, est := range c.ests {
		total += c.fam.size(est)
	}
	var none S
	if c.retired != none {
		total += c.retired.Size()
	}
	return total
}

// Eps reports the configured end-to-end error bound.
func (c *core[T, E, S]) Eps() float64 { return c.eps }

// shard0 returns the first shard estimator, which speaks for the set: all
// shards run the same configuration and converge on the same telemetry, and
// shard 0 is never retired by a rescale.
func (c *core[T, E, S]) shard0() E {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ests[0]
}

// Knobs reports shard 0's currently selected sorter and window size.
func (c *core[T, E, S]) Knobs() (sorter.Sorter[T], int) { return c.shard0().Knobs() }

// Async reports shard 0's commanded execution mode.
func (c *core[T, E, S]) Async() bool { return c.shard0().Async() }

// Process ingests one stream element. After Close it returns an error
// wrapping pipeline.ErrClosed.
func (c *core[T, E, S]) Process(v T) error {
	if err := c.pool.Process(v); err != nil {
		return err
	}
	c.maybeRescale(1)
	return nil
}

// ProcessSlice ingests a batch of stream elements. After Close it returns
// an error wrapping pipeline.ErrClosed. An elastic estimator chunks the
// slice at the dispatch batch size so the rescaler observes per-batch
// throughput even when the caller hands the whole stream in one call.
func (c *core[T, E, S]) ProcessSlice(data []T) error {
	if c.rescaler == nil {
		return c.pool.ProcessSlice(data)
	}
	step := c.pool.batch
	for len(data) > 0 {
		n := min(step, len(data))
		if err := c.pool.ProcessSlice(data[:n]); err != nil {
			return err
		}
		c.maybeRescale(int64(n))
		data = data[n:]
	}
	return nil
}

// Stats sums the unified pipeline telemetry across live and retired shards,
// including each worker's channel-wait time as Idle. Because shards run
// concurrently, the stage durations reflect total work, not wall clock.
// Live and retired are read under one lock acquisition: a scale-down moves
// its victims' stats from one to the other, and a reader that released the
// lock in between would count them twice.
func (c *core[T, E, S]) Stats() pipeline.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	agg := c.retiredStats
	for _, st := range c.perShardStatsLocked() {
		agg.Add(st)
	}
	return agg
}

// PerShardStats exposes each live shard's unified pipeline telemetry; the
// shard worker's channel-wait time is folded in as Idle. Shards retired by
// a scale-down are not listed — their totals live on in Stats.
func (c *core[T, E, S]) PerShardStats() []pipeline.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.perShardStatsLocked()
}

func (c *core[T, E, S]) perShardStatsLocked() []pipeline.Stats {
	idle := c.pool.idleTimes()
	out := make([]pipeline.Stats, len(c.ests))
	for i, est := range c.ests {
		out[i] = est.Stats()
		if i < len(idle) {
			out[i].Idle += idle[i]
		}
	}
	return out
}

// QueryMergeOps reports the cumulative summary entries visited by
// query-time cross-shard merges.
func (c *core[T, E, S]) QueryMergeOps() int64 { return c.queryMergeOps.Load() }

// ModeledTime converts the per-shard counters into modeled 2004-testbed
// time for a K-way sharded run: concurrent shard ingestion plus the serial
// query-time merge.
func (c *core[T, E, S]) ModeledTime(m perfmodel.Model, backend perfmodel.Backend) perfmodel.PipelineBreakdown {
	return m.ShardedPipelineTime(c.PerShardStats(), backend, c.QueryMergeOps())
}
