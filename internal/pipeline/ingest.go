package pipeline

import (
	"math"

	"gpustream/internal/sorter"
)

// Option sets one of the two execution parameters the paper fixes at
// configuration time — how long the sort window is, and whether the sort
// overlaps the merge — and is the one vocabulary for them below the root
// package: every sorter-backed family's constructor takes ...Option, and the
// sharded layer forwards the slice to its shard estimators untranslated.
type Option func(*Options)

// Options is what a family's constructor reads its Option list into.
type Options struct {
	// Window is the sort-window override in elements; zero keeps the
	// family's default. What an override means is the family's: frequency
	// clamps it up to its eps floor, quantile takes it as given, the sliding
	// families ignore it (their pane size is query semantics).
	Window int
	// Async starts the core on the staged executor (StartAsync).
	Async bool
}

// WithWindow overrides the sort-window size.
func WithWindow(n int) Option {
	if n <= 0 {
		panic("pipeline: window must be positive")
	}
	return func(o *Options) { o.Window = n }
}

// WithAsync enables staged asynchronous ingestion: windows sort on a
// dedicated stage goroutine overlapping the merge/compress of the previous
// window. Answers are bit-identical to synchronous mode.
func WithAsync() Option { return func(o *Options) { o.Async = true } }

// WindowLen converts a window length a family's rule computed in floats to
// an int, saturating at math.MaxInt: a tiny eps yields a huge window, never
// one wrapped small.
func WindowLen(x float64) int {
	if x >= math.MaxInt {
		return math.MaxInt
	}
	return int(x)
}

// Resolve folds opts over the zero Options.
func Resolve(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Ingest is the ingestion and telemetry surface every Core-backed estimator
// exposes verbatim: the lifecycle (Process, ProcessSlice, Flush, Close), the
// counters (Count, Stats) and the runtime knobs (SetTuner, Knobs, Async,
// WindowSize). The serial estimator families embed it — through an
// unexported local alias, so no exported field appears on them — and the
// ten methods are promoted instead of being re-declared per family.
//
// It wraps the Core rather than the families embedding *Core itself because
// Core's method set also holds the lock-side API (Lock, FlushLocked,
// BarrierLocked, Partial, Add*, ...), which belongs to an estimator's sink
// and query paths and must not leak onto the public estimator types.
type Ingest[T sorter.Value] struct{ core *Core[T] }

// IngestOf returns the pass-through surface over c.
func IngestOf[T sorter.Value](c *Core[T]) Ingest[T] { return Ingest[T]{core: c} }

// Process consumes one stream element. After Close it returns an error
// wrapping ErrClosed.
func (in Ingest[T]) Process(v T) error { return in.core.Process(v) }

// ProcessSlice consumes a batch of stream elements; the caller may reuse
// the slice immediately. After Close it returns an error wrapping
// ErrClosed.
func (in Ingest[T]) ProcessSlice(data []T) error { return in.core.ProcessSlice(data) }

// Flush forces the buffered partial window through the sort and the
// family's sink. Queries never need it — every family's query path covers
// buffered elements — but it makes the summary state self-contained before
// Close or a hand-off.
func (in Ingest[T]) Flush() error { return in.core.Flush() }

// Close flushes and releases the window buffer back to the spare store.
// The estimator remains queryable; further ingestion reports ErrClosed.
// Close is idempotent.
func (in Ingest[T]) Close() error { return in.core.Close() }

// Count reports the number of stream elements processed, including
// buffered ones.
func (in Ingest[T]) Count() int64 { return in.core.Count() }

// Stats returns the unified per-stage pipeline telemetry. Safe to call
// mid-ingestion; counters are internally consistent.
func (in Ingest[T]) Stats() Stats { return in.core.Stats() }

// SetTuner installs a runtime controller over the pipeline's sorter,
// window and execution-mode knobs; it must be called before ingestion.
// Which schedules keep a family's eps guarantee is the family's concern and
// is stated on its type.
func (in Ingest[T]) SetTuner(t Tuner[T]) { in.core.SetTuner(t) }

// Knobs reports the currently selected sorter and window size.
func (in Ingest[T]) Knobs() (sorter.Sorter[T], int) { return in.core.Tuning() }

// Async reports the commanded execution mode: overlapped staged execution
// when true (requested at construction or by a tuner's AsyncOn), inline
// synchronous execution otherwise.
func (in Ingest[T]) Async() bool { return in.core.Async() }

// WindowSize reports the current sort-window length: the construction-time
// window unless a tuner has rescheduled it.
func (in Ingest[T]) WindowSize() int { return in.core.WindowSize() }
