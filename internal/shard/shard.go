// Package shard implements worker-parallel sharded ingestion for the
// stream-mining estimators: an incoming stream is partitioned across K
// goroutine workers, each running an independent per-shard estimator, and
// queries are answered by merging the shard states.
//
// The correctness argument is the MERGE/COMPRESS error-budget calculus of
// Greenwald and Khanna's sensor-network algorithm (the same calculus XGBoost
// uses for distributed sketch construction): merging eps'-approximate
// summaries over disjoint substreams yields an eps'-approximate summary over
// the union, so giving each shard a budget of eps/2 leaves half the user's
// budget as headroom for downstream compression while the merged answer stays
// eps-approximate. For lossy counting the budget is additive instead of
// max-composed — per-shard undercounts of at most eps*N_i sum to at most
// eps*N — so frequency shards run at the full eps. DESIGN.md section 7 states
// both arguments precisely.
//
// Ingestion is batched: values accumulate in a hand-off buffer and full
// batches (DefaultBatchSize values unless overridden) are dispatched
// round-robin to the shard channels, amortizing synchronization exactly the
// way the paper's window batching amortizes GPU invocation overhead.
//
// Lifecycle is error-based: ingestion after Close reports an error wrapping
// pipeline.ErrClosed, and CloseContext drains the in-flight batches with a
// deadline — if the context expires while shards are still absorbing
// backpressure, the remaining hand-off is abandoned and the context error
// is returned, leaving the estimator queryable over what was absorbed.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// DefaultBatchSize is the ingestion hand-off batch size: large enough that
// channel synchronization is amortized over ~64K values (mirroring the
// paper's practice of batching four windows per GPU invocation), small
// enough that shards stay busy on multi-window streams.
const DefaultBatchSize = 1 << 16

// errClosed is what ingestion into a closed pool reports; it wraps
// pipeline.ErrClosed so callers test with errors.Is.
var errClosed = fmt.Errorf("shard: ingestion after Close: %w", pipeline.ErrClosed)

// Config configures a sharded estimator; the zero value is a static shard
// set at the default batch size with untuned synchronous shard pipelines.
type Config[T sorter.Value] struct {
	// Batch is the hand-off batch size; zero selects DefaultBatchSize.
	// Smaller batches spread short streams across more shards at higher
	// synchronization cost.
	Batch int
	// Pipeline is handed untranslated to every shard estimator's
	// constructor: pipeline.WithWindow overrides the per-shard sort window
	// (clamped as the serial family clamps it), pipeline.WithAsync runs each
	// worker's windows through its own staged executor: the worker merges
	// while its sort stage sorts, so a K-shard estimator runs 2K goroutines
	// (K workers, K sort stages). Answers stay bit-identical to synchronous
	// shards.
	Pipeline []pipeline.Option
	// NewTuner, when set, attaches a runtime tuner to every shard pipeline.
	// It is called once per shard — at construction and again on every
	// elastic scale-up — so each shard gets its own controller (controllers
	// own per-pipeline sorter instances and must not be shared).
	NewTuner func() pipeline.Tuner[T]
	// Rescaler, when set, makes the estimator elastic: the shard count
	// becomes a runtime knob owned by it. Every shard then runs at the
	// merge-safe reduced error budget from construction (quantile shards at
	// eps/2 even when the initial count is 1), so scale-up never widens the
	// merged error, and scale-down drains the retiring shards and folds
	// their snapshots into a retained accumulator via the MergeSnapshots
	// rules (DESIGN.md §16).
	Rescaler Rescaler
}

// Rescaler decides the worker count of an elastic sharded estimator. The
// family consults it roughly once per dispatched batch with the cumulative
// ingested count and the live shard count; a positive return commands that
// count, zero keeps the current one. adaptive.Scaler satisfies this
// structurally — the interface lives here so the shard package needs no
// dependency on the controller package.
type Rescaler interface {
	Observe(totalValues int64, shards int) int
}

// Resolve normalizes a user-supplied shard count: values <= 0 select
// runtime.GOMAXPROCS(0).
func Resolve(shards int) int {
	if shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// ElasticCap is the most shards an elastic estimator may run: the cap its
// Rescaler is built with (adaptive.NewScaler), 2*GOMAXPROCS.
func ElasticCap() int { return 2 * runtime.GOMAXPROCS(0) }

// Reach is the most shards an estimator built with this count runs at once:
// the resolved count, or ElasticCap for an elastic estimator.
func Reach(shards int, elastic bool) int {
	if elastic {
		return ElasticCap()
	}
	return Resolve(shards)
}

// worker is one shard: a channel feeding a goroutine that owns a per-shard
// estimator. The estimator is internally synchronized (its pipeline core
// carries the lock), so the worker needs no mutex of its own — query-time
// snapshots from other goroutines interleave safely with ProcessSlice.
type worker[T sorter.Value] struct {
	ch      chan []T
	process func([]T)
	// done is closed when the worker goroutine exits, so removeWorkers can
	// join a retiring worker individually (the shared WaitGroup only joins
	// the whole pool).
	done chan struct{}
	// idle accumulates nanoseconds the worker goroutine spent blocked
	// waiting for a batch. It feeds pipeline.Stats.Idle so shard starvation
	// is visible in the unified telemetry.
	idle atomic.Int64
}

// pool fans batches out to the shard workers. Safe for concurrent use by
// multiple producers; Flush and queries may run concurrently with ingestion.
type pool[T sorter.Value] struct {
	batch   int
	workers []*worker[T]
	wg      sync.WaitGroup
	// cleanup runs once after every worker has exited; the sharded
	// estimators use it to Close their per-shard estimators so async stage
	// goroutines terminate with the pool.
	cleanup func()

	mu       sync.Mutex // guards cur, next, inflight, total, closed
	cond     *sync.Cond // signaled when inflight reaches zero
	cur      []T
	next     int
	inflight int
	total    int64
	closed   bool
}

// newPool starts one worker goroutine per processor, handing off batches of
// the given size (zero selects DefaultBatchSize). cleanup (may be nil) runs
// once after the last worker exits.
func newPool[T sorter.Value](processors []func([]T), batch int, cleanup func()) *pool[T] {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	p := &pool[T]{batch: batch, cleanup: cleanup}
	p.cond = sync.NewCond(&p.mu)
	p.cur = make([]T, 0, p.batch)
	p.spawnLocked(processors)
	return p
}

// spawnLocked starts one worker goroutine per processor. The caller holds
// p.mu (or is the constructor).
func (p *pool[T]) spawnLocked(processors []func([]T)) {
	for _, proc := range processors {
		w := &worker[T]{ch: make(chan []T, 2), process: proc, done: make(chan struct{})}
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go p.run(w)
	}
}

func (p *pool[T]) run(w *worker[T]) {
	defer close(w.done)
	defer p.wg.Done()
	for {
		t0 := time.Now()
		batch, ok := <-w.ch
		if !ok {
			return
		}
		w.idle.Add(int64(time.Since(t0)))
		w.process(batch)
		p.mu.Lock()
		p.inflight--
		if p.inflight == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// dispatchLocked hands the current buffer to the next worker round-robin.
// The channel send happens with p.mu released: a full channel would
// otherwise deadlock against workers that need p.mu to decrement inflight.
// A Done-less ctx blocks until the shard accepts the batch; with a
// cancellable ctx the send is abandoned on expiry — the batch's values are
// dropped and subtracted from the ingest total — and the context error is
// returned.
func (p *pool[T]) dispatchLocked(ctx context.Context) error {
	b := p.cur
	p.cur = make([]T, 0, p.batch)
	w := p.workers[p.next]
	p.next = (p.next + 1) % len(p.workers)
	p.inflight++
	p.mu.Unlock()
	var err error
	select {
	case w.ch <- b:
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.mu.Lock()
	if err != nil {
		p.inflight--
		p.total -= int64(len(b))
		if p.inflight == 0 {
			p.cond.Broadcast()
		}
	}
	return err
}

// Process ingests one value. After Close it returns an error wrapping
// pipeline.ErrClosed.
func (p *pool[T]) Process(v T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	p.total++
	p.cur = append(p.cur, v)
	if len(p.cur) >= p.batch {
		p.dispatchLocked(context.Background())
	}
	return nil
}

// ProcessSlice ingests a batch of values. The slice is copied into the
// hand-off buffer, so the caller may reuse it immediately. After Close it
// returns an error wrapping pipeline.ErrClosed.
func (p *pool[T]) ProcessSlice(data []T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	p.total += int64(len(data))
	for len(data) > 0 {
		room := p.batch - len(p.cur)
		if room > len(data) {
			room = len(data)
		}
		p.cur = append(p.cur, data[:room]...)
		data = data[room:]
		if len(p.cur) >= p.batch {
			p.dispatchLocked(context.Background())
		}
	}
	return nil
}

// Flush dispatches any buffered values and blocks until every dispatched
// batch has been absorbed by its shard estimator. While Flush holds the
// ingest lock new producers stall, so the drain is guaranteed to terminate.
func (p *pool[T]) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cur) > 0 && !p.closed {
		p.dispatchLocked(context.Background())
	}
	for p.inflight > 0 {
		p.cond.Wait()
	}
	return nil
}

// Close drains and stops the workers with no deadline; it never fails.
func (p *pool[T]) Close() error { return p.CloseContext(context.Background()) }

// CloseContext drains buffered and in-flight batches into the shard
// estimators, stops the worker goroutines, and waits for them to exit. The
// drain is backpressure-aware: if ctx expires while shard channels are
// still full, the un-handed-off values are dropped (and subtracted from
// Count), the workers are left to finish their queued batches
// asynchronously, and the context error is returned wrapped. Either way
// the pool is closed afterwards — the estimator remains queryable and
// further ingestion reports pipeline.ErrClosed. CloseContext is idempotent
// and must not race with Process/ProcessSlice.
func (p *pool[T]) CloseContext(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	// Context expiry becomes a cond broadcast so the drain wait below can
	// observe it.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	var err error
	for len(p.cur) > 0 || p.inflight > 0 {
		if err = ctx.Err(); err != nil {
			if len(p.cur) > 0 {
				p.total -= int64(len(p.cur))
				p.cur = p.cur[:0]
			}
			break
		}
		if len(p.cur) > 0 {
			if err = p.dispatchLocked(ctx); err != nil {
				break
			}
			continue
		}
		p.cond.Wait()
	}
	p.closed = true
	p.mu.Unlock()
	stop()
	for _, w := range p.workers {
		close(w.ch)
	}
	if err != nil {
		// The workers are still absorbing their queued batches; run the
		// estimator cleanup once they exit so no stage goroutine outlives
		// them, without blocking past the caller's deadline.
		if p.cleanup != nil {
			go func() {
				p.wg.Wait()
				p.cleanup()
			}()
		}
		return fmt.Errorf("shard: Close abandoned drain: %w", err)
	}
	p.wg.Wait()
	if p.cleanup != nil {
		p.cleanup()
	}
	return nil
}

// addWorkers grows the pool by one worker per processor. Safe against
// concurrent dispatch (the append happens under p.mu, and round-robin
// simply starts including the new shards); reports false on a closed pool.
func (p *pool[T]) addWorkers(processors []func([]T)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.spawnLocked(processors)
	return true
}

// removeWorkers retires the last n workers: it quiesces the pool (inflight
// is incremented under p.mu before any channel send, so inflight == 0
// observed under the lock means no batch is queued, mid-send, or being
// processed), truncates the round-robin set so no new batch reaches the
// victims, then closes their channels and joins them. It returns the
// victims' accumulated idle time (the caller folds it into the retired
// telemetry) and reports false when nothing was removed — pool closed,
// n out of range, or fewer than n+1 workers. Like CloseContext it must not
// race with Process/ProcessSlice; the elastic families call it from the
// ingestion path itself.
func (p *pool[T]) removeWorkers(n int) ([]time.Duration, bool) {
	p.mu.Lock()
	if p.closed || n <= 0 || n >= len(p.workers) {
		p.mu.Unlock()
		return nil, false
	}
	for p.inflight > 0 {
		p.cond.Wait()
	}
	victims := p.workers[len(p.workers)-n:]
	p.workers = p.workers[:len(p.workers)-n]
	if p.next >= len(p.workers) {
		p.next = 0
	}
	p.mu.Unlock()
	idle := make([]time.Duration, 0, n)
	for _, w := range victims {
		// Quiesced and out of the round-robin set: the worker is blocked on
		// an empty channel, so close makes it exit without touching p.mu.
		close(w.ch)
		<-w.done
		idle = append(idle, time.Duration(w.idle.Load()))
	}
	return idle, true
}

// idleTimes snapshots every live worker's accumulated channel-wait time,
// index-aligned with the shard estimators.
func (p *pool[T]) idleTimes() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]time.Duration, len(p.workers))
	for i, w := range p.workers {
		out[i] = time.Duration(w.idle.Load())
	}
	return out
}

// Count reports the number of values ingested, including any still buffered
// or in flight.
func (p *pool[T]) Count() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Shards reports the number of shard workers, which a Rescaler may change
// at runtime.
func (p *pool[T]) Shards() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}
