// Package pipeline implements the shared windowed-ingestion machinery that
// every estimator family in this repository is built on. The paper's whole
// pipeline is one repeated shape — fill a window, sort it, merge the result
// into a running summary, compress (Sections 4.1 and 5.1) — and Core is that
// shape extracted once: batched Process/ProcessSlice buffering, a sink
// callback invoked per full window, an explicit Flush/Close lifecycle, and
// window-buffer reuse through the shared spare store (TakeSpare) so
// steady-state ingestion does not allocate per window.
//
// Telemetry is unified in Stats: per-stage operation counters plus measured
// wall clock for the paper's three operations (sort, merge, compress) and
// the idle time of parallel shard workers. Estimator sinks record into the
// Core's Stats via AddSort/AddMerge/AddCompress; Core itself counts windows.
//
// Lifecycle contract (tested in pipeline_test.go and async_test.go):
//
//   - Flush seals the buffered partial window through the sink; on an empty
//     buffer it is a no-op, so double Flush is safe and idempotent.
//   - Close flushes, returns the window buffer to the spare store, and
//     marks the core closed. Close is idempotent.
//   - Process and ProcessSlice after Close return an error wrapping
//     ErrClosed — ingestion after shutdown is a recoverable caller mistake,
//     not a panic.
//
// Concurrency contract: Core owns one mutex that serializes ingestion
// against queries. The stream model of the paper answers queries while the
// stream is still arriving, so estimator query paths take Lock/Unlock
// around their multi-step read (flush partial window, walk summary state)
// and the sink always runs with the lock already held. Public entry points
// (Process, ProcessSlice, Flush, Close, Stats, Count, Buffered, Closed)
// lock internally; the *Locked variants and the query-time accessors
// (Partial, SortedPartialLocked, Add*) require the caller to hold the lock.
package pipeline

import (
	"errors"
	"sync"
	"time"

	"gpustream/internal/sorter"
)

// ErrClosed is the sentinel error reported when ingesting into a closed
// estimator. Errors returned by Process/ProcessSlice after Close wrap it, so
// callers test with errors.Is(err, pipeline.ErrClosed).
var ErrClosed = errors.New("pipeline: estimator is closed")

// Stats is the unified per-stage telemetry of a windowed summary pipeline,
// in backend-independent units. It subsumes the Timings/Counts pairs the
// estimator packages used to duplicate: counters match the three operations
// of the paper's Section 3.2 and feed the perfmodel, durations are measured
// host wall clock whose proportions reproduce Figure 6 directly.
type Stats struct {
	Windows      int64 // windows (or panes) flushed through the sink
	SortedValues int64 // stream values that passed through the sort stage
	MergeOps     int64 // summary/histogram elements visited by merges
	CompressOps  int64 // summary elements visited by compress scans

	Sort     time.Duration // wall clock in the sort (histogram) stage
	Merge    time.Duration // wall clock in the merge stage
	Compress time.Duration // wall clock in the compress stage
	Idle     time.Duration // wall clock spent waiting for input (shard workers)

	// Staged-executor telemetry, zero in synchronous mode. Overlap is the
	// wall clock during which the sort stage and the merge/compress stage
	// were busy simultaneously — the co-processing the paper's Section 3
	// claims; Stall is the time a sealing caller waited on the sort stage
	// (to take the window, then to hand back the previous one sorted);
	// MaxInFlight is the peak number of windows between hand-off and merge
	// completion, 2 once the pipeline is full.
	Overlap     time.Duration
	Stall       time.Duration
	MaxInFlight int64
}

// Total sums the active processing stages. Idle is excluded: it measures
// starvation, not work, and would double-count against other shards' stages.
func (s Stats) Total() time.Duration { return s.Sort + s.Merge + s.Compress }

// Add accumulates o into s, for aggregating per-shard or per-estimator
// stats into one report.
func (s *Stats) Add(o Stats) {
	s.Windows += o.Windows
	s.SortedValues += o.SortedValues
	s.MergeOps += o.MergeOps
	s.CompressOps += o.CompressOps
	s.Sort += o.Sort
	s.Merge += o.Merge
	s.Compress += o.Compress
	s.Idle += o.Idle
	s.Overlap += o.Overlap
	s.Stall += o.Stall
	if o.MaxInFlight > s.MaxInFlight {
		s.MaxInFlight = o.MaxInFlight
	}
}

// AsyncKnob is the tri-state execution-mode knob. The zero value keeps the
// current mode, matching the "zero means keep" convention of the other knob
// fields, so tuners that only touch the sorter or window never flip modes by
// accident.
type AsyncKnob int8

const (
	AsyncKeep AsyncKnob = iota // keep the current execution mode
	AsyncOn                    // staged overlapped execution (a sort-stage goroutine)
	AsyncOff                   // inline synchronous execution
)

// Knobs are the runtime-tunable execution parameters of a staged core: the
// sorting backend, the window size, and the execution mode. In a Tuner's
// return value a nil Sorter, non-positive Window, or AsyncKeep means "keep
// the current setting".
type Knobs[T sorter.Value] struct {
	Sorter sorter.Sorter[T]
	Window int
	Async  AsyncKnob
}

// Tuner is the runtime controller consulted at every window boundary, right
// after that window's merge completed. It receives the core's telemetry
// snapshot and the currently active knobs and returns the knobs to use for
// subsequent windows (ok false keeps everything unchanged). Retune runs
// with the core lock held, on whichever goroutine ran the merge (an
// ingesting caller, or a query draining the async pipeline), so
// implementations must be fast and must not call back into the core.
//
// Knob changes take effect at window boundaries only: the window currently
// buffering and any window already in flight keep the sorter they were
// sealed with, which is what keeps dynamic schedules eps-correct — every
// value still passes through exactly one sorted window.
type Tuner[T sorter.Value] interface {
	Retune(st Stats, cur Knobs[T]) (next Knobs[T], ok bool)
}

// Core is the windowed-ingestion engine shared by the estimator families:
// it owns the window buffer, the ingestion loop, the lifecycle, the Stats,
// and the mutex that makes live queries safe against concurrent ingestion.
// Each full window (and each Flush-forced partial window) is sorted by the
// core's sorter and handed to the merge stage, the estimator's sink, which
// performs the estimator-specific merge/compress work; the slice passed to
// the sink is only valid for the duration of the call and is reused for the
// next window. The sink is always invoked with the core's lock held, so it
// may touch estimator state and the Add* recorders freely.
//
// One writer and any number of query goroutines may use a Core-backed
// estimator concurrently; multiple concurrent writers are also safe but
// serialize on the lock (internal/shard partitions the stream across
// per-worker estimators instead).
type Core[T sorter.Value] struct {
	mu     sync.Mutex
	window int
	buf    []T
	count  int64
	closed bool
	stats  Stats

	// srt sorts each sealed window and mergeFn folds the sorted window
	// into summary state; in synchronous mode emit runs both inline, and
	// after StartAsync the sort runs on the executor's sort stage while the
	// caller merges.
	srt     sorter.Sorter[T]
	mergeFn func(win []T)
	exec    *executor[T]

	// asyncWant is the commanded execution mode. A tuner flips it inside a
	// merge's retune; the emit or barrier that ran that merge then applies
	// it (applyAsyncLocked) before returning.
	asyncWant bool

	// tuner, when set, is consulted after every merged window and may swap
	// the sorter and resize the window at that boundary (SetTuner).
	tuner Tuner[T]
}

// NewCore returns a core buffering windows of the given size that hands
// each window to sink unsorted: a staged core whose sort stage does
// nothing.
func NewCore[T sorter.Value](window int, sink func(win []T)) *Core[T] {
	return NewStagedCore(window, sorter.Func[T]{SortFunc: func([]T) {}, Label: "none"}, sink)
}

// NewStagedCore returns a core whose sink is split into the paper's two
// pipeline stages: srt sorts each sealed window ascending in place, and
// mergeFn merges/compresses the sorted window into summary state. The core
// times the sort stage itself (AddSort with the window length); mergeFn
// records its own merge/compress telemetry via the Add* recorders. By
// default both stages run inline under the lock; StartAsync moves the sort
// onto a stage goroutine that overlaps the caller's merge of the previous
// window. The window buffer comes from the spare store (TakeSpare) and
// returns to it on Close.
func NewStagedCore[T sorter.Value](window int, srt sorter.Sorter[T], mergeFn func(win []T)) *Core[T] {
	if window <= 0 {
		panic("pipeline: window must be positive")
	}
	if srt == nil || mergeFn == nil {
		panic("pipeline: staged core requires a sorter and a merge stage")
	}
	return &Core[T]{window: window, buf: TakeSpareAtLeast[T](window), srt: srt, mergeFn: mergeFn}
}

// Lock acquires the core's ingestion/query mutex. Estimator query paths
// hold it across their multi-step reads so answers are snapshot-consistent
// against a concurrent writer.
func (c *Core[T]) Lock() { c.mu.Lock() }

// Unlock releases the core's ingestion/query mutex.
func (c *Core[T]) Unlock() { c.mu.Unlock() }

// WindowSize reports the current window length. It is read under the lock:
// a tuner may resize the window at any window boundary.
func (c *Core[T]) WindowSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window
}

// WindowSizeLocked is WindowSize for callers already holding the lock
// (estimator sinks and query paths).
func (c *Core[T]) WindowSizeLocked() int { return c.window }

// Tuning reports the currently active knobs: the selected sorter and the
// window size.
func (c *Core[T]) Tuning() (sorter.Sorter[T], int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srt, c.window
}

// SetTuner installs the runtime controller consulted after every merged
// window. It must be called before any value is ingested (the same
// construction-time window StartAsync has); the tuner then owns the sorter
// and window knobs for the core's lifetime. Retune runs with the core lock
// held, so the tuner must not call back into the core.
func (c *Core[T]) SetTuner(t Tuner[T]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.count != 0 {
		panic("pipeline: SetTuner must precede ingestion")
	}
	c.tuner = t
}

// retune consults the tuner after a window has been merged (lock held) and
// applies the returned knobs. A sorter swap takes effect with the next
// sealed window: the synchronous path reads c.srt at the next emit and the
// async path snapshots the sorter into each hand-off, so a window already
// in flight keeps the sorter it was sealed with. An Async flip only records
// the commanded mode here; the emit or barrier that ran this merge applies
// it through applyAsyncLocked once the merge is done.
func (c *Core[T]) retune() {
	if c.tuner == nil {
		return
	}
	cur := Knobs[T]{Sorter: c.srt, Window: c.window, Async: AsyncOff}
	if c.asyncWant {
		cur.Async = AsyncOn
	}
	next, ok := c.tuner.Retune(c.StatsLocked(), cur)
	if !ok {
		return
	}
	if next.Sorter != nil {
		c.srt = next.Sorter
	}
	if next.Window > 0 {
		c.window = next.Window
	}
	switch next.Async {
	case AsyncOn:
		c.asyncWant = true
	case AsyncOff:
		c.asyncWant = false
	}
}

// applyAsyncLocked reconciles the live execution mode with the commanded
// one at the end of every emit and barrier, with the lock held, so
// transitions always happen between windows: stopping merges the pending
// window first, and its retune may command async again, which then keeps
// the executor; starting just spins the sort stage up. Either way every
// value still passes through exactly one sorted window, so a schedule of
// mode flips is bit-identical to any fixed mode.
func (c *Core[T]) applyAsyncLocked() {
	if !c.asyncWant && c.exec != nil {
		c.mergePendingLocked()
	}
	switch {
	case c.asyncWant && c.exec == nil:
		c.startExecutorLocked()
	case !c.asyncWant && c.exec != nil:
		c.stopExecutorLocked()
	}
}

// Count reports the total values ingested, including buffered ones.
func (c *Core[T]) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// CountLocked is Count for callers already holding the lock.
func (c *Core[T]) CountLocked() int64 { return c.count }

// Buffered reports the number of values in the current partial window.
func (c *Core[T]) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// BufferedLocked is Buffered for callers already holding the lock.
func (c *Core[T]) BufferedLocked() int { return len(c.buf) }

// Partial exposes the current partial window. The caller must hold the
// lock; the returned slice aliases the live buffer, so callers copy before
// the lock is released.
func (c *Core[T]) Partial() []T { return c.buf }

// SortedPartialLocked calls use with a sorted copy of the current partial
// window, nil when nothing is buffered, for query-time snapshots. The copy
// lives in a buffer borrowed from the spare store for the call and returned
// to it after, so use must not keep it. The caller must hold the
// lock and, in async mode, have passed BarrierLocked: the copy is sorted
// with the current sorter, which must be idle.
func (c *Core[T]) SortedPartialLocked(use func(sorted []T)) {
	if len(c.buf) == 0 {
		use(nil)
		return
	}
	// Window-sized, like the window buffers the store holds, so the next
	// read or a new core can take it back whatever it then needs.
	tmp := append(TakeSpareAtLeast[T](max(c.window, len(c.buf))), c.buf...)
	c.srt.Sort(tmp)
	use(tmp)
	PutSpare(tmp)
}

// Closed reports whether Close has been called.
func (c *Core[T]) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Process ingests one value. After Close it returns an error wrapping
// ErrClosed.
func (c *Core[T]) Process(v T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.count++
	c.buf = append(c.buf, v)
	if len(c.buf) >= c.window {
		c.emit()
	}
	return nil
}

// ProcessSlice ingests a batch of values, copying them into the window
// buffer chunk-wise so full windows flush as they complete. After Close it
// returns an error wrapping ErrClosed. The caller may reuse data
// immediately.
func (c *Core[T]) ProcessSlice(data []T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.count += int64(len(data))
	for len(data) > 0 {
		room := c.window - len(c.buf)
		if room <= 0 {
			// A retune shrank the window below the current fill: seal the
			// buffered values as one (oversized) window and re-check.
			c.emit()
			continue
		}
		if room > len(data) {
			room = len(data)
		}
		c.buf = append(c.buf, data[:room]...)
		data = data[room:]
		if len(c.buf) >= c.window {
			c.emit()
		}
	}
	return nil
}

// Flush seals the buffered partial window through the sink. On an empty
// buffer — including immediately after a previous Flush or after Close —
// it is a no-op, so the returned error is always nil today; the signature
// matches the estimator lifecycle so callers program against one surface.
func (c *Core[T]) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.FlushLocked()
	return nil
}

// FlushLocked is Flush for callers already holding the lock (query paths
// that seal the partial window before walking summary state). In async mode
// it additionally drains every in-flight window, so on return the summary
// state reflects the whole ingested prefix exactly as it would after a
// synchronous flush.
func (c *Core[T]) FlushLocked() {
	if len(c.buf) > 0 {
		c.emit()
	}
	c.BarrierLocked()
}

// Close flushes, drains and terminates the sort stage if async mode is on,
// returns the window buffer to the spare store, and marks the
// core closed. Further Process/ProcessSlice calls return an error
// wrapping ErrClosed; Flush and the accessors remain safe. Close is
// idempotent and always returns nil.
func (c *Core[T]) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.FlushLocked()
	if c.exec != nil {
		c.stopExecutorLocked()
	}
	c.closed = true
	PutSpare(c.buf)
	c.buf = nil
	return nil
}

// emit seals the buffered window through the pipeline and resets the
// buffer. The lock is already held on every path that reaches here. It
// sorts then merges — inline in synchronous mode, overlapped with the sort
// stage after StartAsync — and then applies any mode flip that merge's
// retune commanded.
func (c *Core[T]) emit() {
	c.stats.Windows++
	if c.exec != nil {
		c.emitAsync()
	} else {
		t0 := time.Now()
		c.srt.Sort(c.buf)
		c.AddSort(time.Since(t0), int64(len(c.buf)))
		c.mergeFn(c.buf)
		c.buf = c.buf[:0]
		c.retune()
	}
	c.applyAsyncLocked()
}

// AddSort records d spent in the sort stage over values sorted elements.
// Caller must hold the lock (sinks and query paths do).
func (c *Core[T]) AddSort(d time.Duration, values int64) {
	c.stats.Sort += d
	c.stats.SortedValues += values
}

// AddMerge records d spent in the merge stage visiting ops elements.
// Caller must hold the lock.
func (c *Core[T]) AddMerge(d time.Duration, ops int64) {
	c.stats.Merge += d
	c.stats.MergeOps += ops
}

// AddCompress records d spent in the compress stage visiting ops elements.
// Caller must hold the lock.
func (c *Core[T]) AddCompress(d time.Duration, ops int64) {
	c.stats.Compress += d
	c.stats.CompressOps += ops
}

// AddIdle records d spent waiting for input. Caller must hold the lock.
func (c *Core[T]) AddIdle(d time.Duration) { c.stats.Idle += d }

// Stats returns a snapshot of the unified telemetry. The counters are read
// under the lock, so a concurrent reader never observes a torn report
// (e.g. a window counted whose sort time has not landed yet).
func (c *Core[T]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.StatsLocked()
}

// StatsLocked is Stats for callers already holding the lock.
func (c *Core[T]) StatsLocked() Stats { return c.stats }

// Async reports the commanded execution mode: true for the staged executor,
// false for inline synchronous execution. Every emit and barrier applies
// the mode its retune commanded before returning, so while the core is
// open the commanded mode is the live one.
func (c *Core[T]) Async() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.asyncWant
}
