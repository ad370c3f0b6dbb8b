// Package quantile implements the paper's epsilon-approximate quantile
// estimation over data streams (Section 5.2): Greenwald-Khanna's
// sensor-network algorithm extended to the stream model with an exponential
// histogram of summaries. Each incoming window is sorted (the GPU-
// accelerated step) and held until the next one is sorted too; the pair is
// then reduced to one (eps/2)-approximate summary with exact ranks, read
// from both runs by bisection without merging them, and inserted as a
// bucket at level 0 (DESIGN.md section 27); whenever two buckets share a
// level they are combined by a merge and, once the result outgrows its entry
// budget, a prune that spends a fixed fraction of the error headroom the
// bucket has left, so the total error never exceeds eps at any stream length
// (DESIGN.md section 17).
//
// Windowing, buffering, lifecycle, locking, and telemetry come from the
// shared internal/pipeline core; this package contributes the
// sort -> summarize -> cascade-combine sink. A combine that prunes is one
// fused merge-and-prune pass (summary.MergePruneInto), and the storage of
// consumed never-pruned buckets is recycled into the next bucket built at
// their level (DESIGN.md section 23). Queries are safe under concurrent
// ingestion, and Snapshot returns an immutable view: a view is always
// merged, pruned or copied into storage of its own, never a bucket, so
// recycling cannot reach it.
package quantile

import (
	"fmt"
	"math"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// How eps is spent (DESIGN.md section 17). A sampled pair of windows spends
// eps/2 at level 0; the view keeps viewShare of eps for its one final
// prune; the cascade may bring a bucket up to the cap in between, and each
// prune spends 1/budgetShare of whatever headroom its bucket still has
// below the cap.
const (
	// windowMultiple sizes the default sort window, in units of ceil(1/eps).
	// Level 0 spans two sort windows, so it keeps every
	// (2*windowMultiple)-th rank of the pair.
	windowMultiple = 4
	viewShare      = 1.0 / 8
	budgetShare    = 8
)

// pruneBudget returns the entry budget b of a prune that spends no more
// than 1/budgetShare of headroom: 1/(2b) <= headroom/budgetShare. Headroom
// therefore shrinks by a constant factor per prune and never reaches zero,
// which is what frees the cascade from an a-priori stream length. A budget
// too large for an int saturates; no summary can outgrow that one.
func pruneBudget(headroom float64) int {
	b := math.Ceil(budgetShare / (2 * headroom))
	if b >= math.MaxInt {
		return math.MaxInt
	}
	return int(b)
}

// shell is the ingest surface promoted into Estimator; the unexported alias
// keeps the embedded field off the exported API.
type shell[T sorter.Value] = pipeline.Ingest[T]

// Estimator answers eps-approximate quantile queries over a stream of any
// length.
//
// Process, ProcessSlice, Flush, Close, Count, Stats, SetTuner, Knobs, Async
// and WindowSize are promoted from the shared ingest shell. Any window
// schedule a tuner produces stays within the eps bound: FromSortedWindow's
// eps/2 summary error is window-size independent, and the cascade budgets
// each combine from the error its buckets have actually spent, not from a
// planned depth.
//
// One writer and any number of query goroutines may use an Estimator
// concurrently.
type Estimator[T sorter.Value] struct {
	shell[T]
	eps   float64
	cap   float64           // most error a bucket may have spent: eps less the view's share
	viewB int               // entry budget of the view's final prune
	core  *pipeline.Core[T] // the lock-side API the sink and query paths use

	// levels[k] is the bucket covering 2^k pairs of windows, nil while that
	// level is empty. A bucket's Eps is the error it has spent so far: what
	// its pairs spent at level 0 (the largest of them) plus every prune on
	// the way up.
	levels []*summary.Summary[T]
	n      int64 // elements folded into buckets or held (excludes buffered)

	// held is the first sorted window of a pair, kept until the second one
	// arrives and the two become one level-0 bucket; empty between pairs.
	// It is a copy: the core refills the window it was sorted in.
	held []T

	// spare[k], when not nil, is a consumed level-k bucket that was never
	// pruned, kept for its entry storage: the next bucket built at level k
	// is written into it (DESIGN.md section 23). Views never alias a
	// bucket, so nothing else can still hold it.
	spare []*summary.Summary[T]

	// snapshot cache: queries against an unchanged stream reuse the merged
	// summary instead of re-merging every bucket.
	snapCache *summary.Summary[T]
	snapState [2]int64 // (n, buffered) the cache was built at
}

// NewEstimator returns an eps-approximate quantile estimator sorting windows
// with s. The capacity argument is accepted for compatibility and ignored:
// the cascade budgets by the depth it observes, so the bound holds at any
// stream length. A pipeline.WithWindow override replaces the default sort
// window of 4*ceil(1/eps) as given, and level 0 then spans two windows of
// that size: the eps/2 a level-0 summary spends is size-independent.
func NewEstimator[T sorter.Value](eps float64, _ int64, s sorter.Sorter[T], opts ...pipeline.Option) *Estimator[T] {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("quantile: eps %v out of (0, 1)", eps))
	}
	cfg := pipeline.Resolve(opts)
	e := &Estimator[T]{
		eps:   eps,
		cap:   eps * (1 - viewShare),
		viewB: int(math.Ceil(1 / (2 * viewShare * eps))),
	}
	e.core = pipeline.NewStagedCore(Window(eps, cfg.Window), s, e.mergeWindow)
	e.shell = pipeline.IngestOf(e.core)
	if cfg.Async {
		e.core.StartAsync()
	}
	return e
}

// Window is the sort window an Estimator at eps runs: a positive override
// as given, otherwise windowMultiple*ceil(1/eps).
func Window(eps float64, override int) int {
	if override > 0 {
		return override
	}
	return pipeline.WindowLen(windowMultiple * math.Ceil(1/eps))
}

// Eps reports the configured error bound.
func (e *Estimator[T]) Eps() float64 { return e.eps }

// SummaryEntries reports the total entries retained across all buckets plus
// the values of a held sorted window, the estimator's memory footprint.
func (e *Estimator[T]) SummaryEntries() int {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.BarrierLocked()
	total := len(e.held)
	for _, b := range e.levels {
		if b != nil {
			total += b.Size()
		}
	}
	return total
}

// Buckets reports the number of live exponential-histogram buckets.
func (e *Estimator[T]) Buckets() int {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.BarrierLocked()
	live := 0
	for _, b := range e.levels {
		if b != nil {
			live++
		}
	}
	return live
}

// windowSummary reduces two sorted windows (either may be empty) to the
// level-0 summary of their sorted concatenation, built in dst's storage (nil
// allocates), with Eps the error the reduction actually spent: eps/2 when
// ranks were sampled, and nothing when every rank was kept —
// FromSortedWindow reports step/(2w) for those too, which for a short
// flushed window exceeds eps although no query against it can miss.
func windowSummary[T sorter.Value](dst *summary.Summary[T], a, b []T, eps float64) *summary.Summary[T] {
	s := summary.FromSortedPairInto(dst, a, b, eps)
	if s.Size() == len(a)+len(b) {
		s.Eps = 0
	}
	return s
}

// mergeWindow is the merge-stage half of the pipeline: it receives a window
// the core has already sorted (inline, or on the sort stage goroutine in
// async mode). The first window of a pair is held; the second is reduced
// with it to one summary, and combines cascade like a binary counter's
// carries. The core holds the lock around the call in both modes.
func (e *Estimator[T]) mergeWindow(win []T) {
	// Holding and reducing sorted windows belong to the sort (window
	// preparation) stage of the paper's accounting; the values were already
	// counted when the core timed the sort itself.
	t0 := time.Now()
	e.n += int64(len(win))
	if len(e.held) == 0 {
		e.held = append(e.held, win...)
		e.core.AddSort(time.Since(t0), 0)
		return
	}
	s := windowSummary(e.takeSpare(0), e.held, win, e.eps)
	e.held = e.held[:0]
	e.core.AddSort(time.Since(t0), 0)

	for k := range e.levels {
		old := e.levels[k]
		if old == nil {
			e.levels[k] = s
			return
		}
		e.levels[k] = nil
		s = e.combine(k, old, s)
	}
	e.levels = append(e.levels, s)
}

// combine merges two buckets of level k into the bucket of level k+1. The
// merge costs no error (the result has spent what the worse input had); a
// result within the entry budget its remaining headroom affords is merged
// whole, into level k+1's spare storage if there is one, and a larger one
// is merged and pruned to the budget in one fused pass into fresh storage,
// spending 1/(2b) more. The inputs are consumed: their storage may go to
// level k's spare.
func (e *Estimator[T]) combine(k int, a, b *summary.Summary[T]) *summary.Summary[T] {
	budget := pruneBudget(e.cap - math.Max(a.Eps, b.Eps))
	size := a.Size() + b.Size()
	t0 := time.Now()
	var m *summary.Summary[T]
	if size-1 <= budget { // not size <= budget+1: a saturated budget would overflow
		m = summary.MergeInto(e.takeSpare(k+1), a, b)
		e.core.AddMerge(time.Since(t0), int64(size))
	} else {
		// One pass did both; its time is the compress stage's, and both
		// stages still count the entries they visit.
		m = summary.MergePruneInto(nil, a, b, budget)
		e.core.AddMerge(0, int64(size))
		e.core.AddCompress(time.Since(t0), int64(size))
	}
	e.recycle(k, a)
	e.recycle(k, b)
	return m
}

// takeSpare hands out level k's spare storage, or nil.
func (e *Estimator[T]) takeSpare(k int) *summary.Summary[T] {
	if k >= len(e.spare) {
		return nil
	}
	s := e.spare[k]
	e.spare[k] = nil
	return s
}

// recycle keeps a consumed level-k bucket as level k's spare if the slot is
// empty and the bucket was never pruned, which its spent error tells:
// level 0 spends at most eps/2, a merge keeps the larger input's and every
// prune adds to it. Pruned buckets are left to the collector: the level
// that would reuse one is filled by a prune, which writes fresh storage,
// so a spare there would only add to the heap. (A bucket pruned from
// windows that kept every rank can pass the test; keeping it is as safe as
// keeping any consumed bucket, and still one slot.)
func (e *Estimator[T]) recycle(k int, s *summary.Summary[T]) {
	if s.Eps > e.eps/2 {
		return
	}
	for len(e.spare) <= k {
		e.spare = append(e.spare, nil)
	}
	if e.spare[k] == nil {
		e.spare[k] = s
	}
}

// snapshotLocked merges the live buckets, the held window and the buffered
// partial window into one queryable summary without disturbing the
// estimator state, and prunes it once to the view's entry budget with the
// share of eps kept back for that: what queries, the wire and cross-shard
// merges handle is O(1/eps) entries however long the stream. The result is cached until more
// elements arrive; the caller must hold the core lock. The returned summary
// never shares storage with a bucket — bucket storage is recycled — so it
// is immutable and may safely outlive the locked region.
func (e *Estimator[T]) snapshotLocked() *summary.Summary[T] {
	// Drain in-flight windows first: the buckets must cover the whole
	// emitted prefix and the sorter must be idle before the partial-window
	// sort below may reuse it.
	e.core.BarrierLocked()
	buffered := e.core.BufferedLocked()
	state := [2]int64{e.n, int64(buffered)}
	if e.snapCache != nil && e.snapState == state {
		return e.snapCache
	}
	// Smallest first keeps the running merge short for as long as possible:
	// the held window with the sorted partial one, read as the level 0 a
	// Flush would build without consuming either, then the buckets by level.
	var parts []*summary.Summary[T]
	unsealed := len(e.held) > 0 || buffered > 0
	if unsealed {
		var partial []T
		t0 := time.Now()
		if buffered > 0 {
			partial = append(e.core.Scratch(buffered), e.core.Partial()...)
			e.core.SorterLocked().Sort(partial)
		}
		parts = append(parts, windowSummary(nil, e.held, partial, e.eps))
		e.core.AddSort(time.Since(t0), 0)
	}
	for _, b := range e.levels {
		if b != nil {
			parts = append(parts, b)
		}
	}
	var acc *summary.Summary[T]
	switch len(parts) {
	case 0:
	case 1:
		acc = parts[0]
		if acc.Size()-1 > e.viewB {
			acc = acc.Prune(e.viewB)
		} else if !unsealed {
			acc = acc.Clone() // a bucket: its storage will be recycled
		}
	default:
		// Chain-merge all but the last part, then merge the last one and
		// prune to the view's budget in one fused pass.
		acc = parts[0]
		last := parts[len(parts)-1]
		for _, p := range parts[1 : len(parts)-1] {
			acc = summary.Merge(acc, p)
		}
		if acc.Size()+last.Size()-1 > e.viewB {
			acc = summary.MergePruneInto(nil, acc, last, e.viewB)
		} else {
			acc = summary.Merge(acc, last)
		}
	}
	e.snapCache, e.snapState = acc, state
	return acc
}

// merged returns the current merged summary under the lock.
func (e *Estimator[T]) merged() *summary.Summary[T] {
	e.core.Lock()
	defer e.core.Unlock()
	return e.snapshotLocked()
}

// Query returns an eps-approximate phi-quantile of everything processed so
// far. It panics if the stream is empty. Safe under concurrent ingestion.
func (e *Estimator[T]) Query(phi float64) T {
	s := e.merged()
	if s == nil || s.N == 0 {
		panic("quantile: query on empty stream")
	}
	return s.Query(phi)
}

// QueryRank returns a value whose rank is within eps*N of r. Safe under
// concurrent ingestion.
func (e *Estimator[T]) QueryRank(r int64) T {
	s := e.merged()
	if s == nil || s.N == 0 {
		panic("quantile: query on empty stream")
	}
	return s.QueryRank(r)
}

// Summary exposes the merged snapshot, mainly for validation harnesses.
func (e *Estimator[T]) Summary() *summary.Summary[T] { return e.merged() }

// Snapshot is an immutable point-in-time view of a quantile estimator: a
// handle on the merged GK summary of the moment. It is safe for concurrent
// use and implements pipeline.View.
type Snapshot[T sorter.Value] struct {
	sum *summary.Summary[T] // nil when the snapshot covers an empty stream
	eps float64
}

// Snapshot returns an immutable view covering everything processed so far,
// including the buffered partial window. The view never sees ingestion that
// happens after this call.
func (e *Estimator[T]) Snapshot() pipeline.View[T] {
	return &Snapshot[T]{sum: e.merged(), eps: e.eps}
}

// NewSnapshot wraps an already-merged summary (may be nil for an empty
// stream) as an immutable view. Sharded ingestion uses it to publish the
// cross-shard merge.
func NewSnapshot[T sorter.Value](sum *summary.Summary[T], eps float64) *Snapshot[T] {
	return &Snapshot[T]{sum: sum, eps: eps}
}

// Count reports the stream length the snapshot covers.
func (s *Snapshot[T]) Count() int64 {
	if s.sum == nil {
		return 0
	}
	return s.sum.N
}

// Size reports the retained summary entries.
func (s *Snapshot[T]) Size() int {
	if s.sum == nil {
		return 0
	}
	return s.sum.Size()
}

// Eps reports the snapshot's error bound.
func (s *Snapshot[T]) Eps() float64 { return s.eps }

// Query returns an eps-approximate phi-quantile. It panics if the snapshot
// covers an empty stream (use Quantile for the non-panicking form).
func (s *Snapshot[T]) Query(phi float64) T {
	if s.sum == nil || s.sum.N == 0 {
		panic("quantile: query on empty stream")
	}
	return s.sum.Query(phi)
}

// QueryRank returns a value whose rank is within eps*N of r. It panics if
// the snapshot covers an empty stream.
func (s *Snapshot[T]) QueryRank(r int64) T {
	if s.sum == nil || s.sum.N == 0 {
		panic("quantile: query on empty stream")
	}
	return s.sum.QueryRank(r)
}

// Summary exposes the underlying merged summary (nil for an empty stream).
// Callers must treat it as read-only.
func (s *Snapshot[T]) Summary() *summary.Summary[T] { return s.sum }

// Quantile implements pipeline.View; ok is false on an empty stream.
func (s *Snapshot[T]) Quantile(phi float64) (T, bool) {
	if s.sum == nil || s.sum.N == 0 {
		var z T
		return z, false
	}
	return s.sum.Query(phi), true
}

// HeavyHitters implements pipeline.View; quantile sketches do not answer
// frequency queries.
func (s *Snapshot[T]) HeavyHitters(float64) ([]pipeline.Item[T], bool) { return nil, false }

// Frequency implements pipeline.View; quantile sketches do not answer
// point-frequency queries.
func (s *Snapshot[T]) Frequency(T) (int64, bool) { return 0, false }
