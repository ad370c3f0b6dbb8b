package window

import (
	"sync"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// SlidingQuantile answers eps-approximate quantile queries over the most
// recent W elements. Panes of ceil(eps*W/2) elements are sorted and reduced
// to (eps/2)-approximate GK summaries; a query merges the summaries of the
// panes covering the requested suffix. The merged summary's rank error plus
// the boundary quantization of the oldest pane stays within eps*W.
//
// Pane summaries are immutable once sealed (and may be exposed through
// WindowSummary or a QuantileSnapshot), so unlike SlidingFrequency their
// storage is never recycled on expiry — snapshots alias them for free.
//
// One writer and any number of query goroutines may use the estimator
// concurrently.
type SlidingQuantile[T sorter.Value] struct {
	sliding[T, *summary.Summary[T]]
}

// NewSlidingQuantile returns a sliding-window quantile estimator of window
// size w and error eps, sorting panes with s.
func NewSlidingQuantile[T sorter.Value](eps float64, w int, s sorter.Sorter[T], opts ...pipeline.Option) *SlidingQuantile[T] {
	q := &SlidingQuantile[T]{}
	q.init(eps, w, s, q.sealSorted, opts)
	return q
}

// SummaryEntries reports the total retained summary entries, the
// estimator's memory footprint.
func (q *SlidingQuantile[T]) SummaryEntries() int {
	q.core.Lock()
	defer q.core.Unlock()
	q.core.BarrierLocked()
	total := q.core.BufferedLocked()
	for _, p := range q.panes {
		total += p.Size()
	}
	return total
}

// sealSorted is the merge-stage half of the pane pipeline: it receives a
// pane the core has already sorted (inline, or on the sort stage goroutine
// in async mode), reduces it to a summary, and expires old panes. The core
// holds the lock around the call in both modes.
func (q *SlidingQuantile[T]) sealSorted(win []T) {
	// Summary reduction belongs to the paper's sort stage accounting; the
	// values were already counted when the core timed the sort itself.
	t0 := time.Now()
	s := summary.FromSortedWindow(win, q.eps)
	q.core.AddSort(time.Since(t0), 0)
	q.panes = append(q.panes, s)
	q.expireLocked()
}

// viewLocked builds the estimator's view: the live ring itself, not a copy,
// and the partial pane sorted and reduced to a summary of its own. Caller
// holds the core lock, and a view over the live ring answers only while it
// does; Snapshot makes the view outlive it.
func (q *SlidingQuantile[T]) viewLocked() *QuantileSnapshot[T] {
	// Drain in-flight panes so the ring covers the whole emitted prefix and
	// the sorter is idle for the partial-pane sort.
	q.core.BarrierLocked()
	v := &QuantileSnapshot[T]{eps: q.eps, w: q.w, count: q.core.CountLocked(), panes: q.panes}
	q.core.SortedPartialLocked(func(sorted []T) {
		if sorted != nil {
			v.partial = summary.FromSortedWindow(sorted, q.eps)
		}
	})
	return v
}

// Query returns an eps-approximate phi-quantile of the most recent W
// elements. It panics if nothing has been processed. Safe under concurrent
// ingestion.
func (q *SlidingQuantile[T]) Query(phi float64) T {
	return q.QueryWindow(phi, q.w)
}

// QueryWindow answers the variable-size query over the most recent w
// elements, w <= W. Rank error is bounded by eps*W (absolute). Safe under
// concurrent ingestion.
func (q *SlidingQuantile[T]) QueryWindow(phi float64, w int) T {
	defer q.lockQuery()()
	return q.viewLocked().QueryWindow(phi, w)
}

// WindowSummary exposes the merged summary over the most recent w
// elements, for validation harnesses; nil before anything is ingested.
func (q *SlidingQuantile[T]) WindowSummary(w int) *summary.Summary[T] {
	defer q.lockQuery()()
	return q.viewLocked().cover(w)
}

// QuantileSnapshot is an immutable point-in-time view of a sliding-window
// quantile estimator. Pane summaries are aliased directly — they are never
// mutated or recycled — so taking one costs O(partial pane). The whole
// window is folded once, on first use, and every whole-window answer after
// reads that fold (DESIGN.md §12). A QuantileSnapshot is safe for
// concurrent use and implements pipeline.View.
type QuantileSnapshot[T sorter.Value] struct {
	eps     float64
	w       int
	count   int64
	panes   []*summary.Summary[T] // oldest first
	partial *summary.Summary[T]   // nil when the pane buffer was empty

	once  sync.Once
	whole *summary.Summary[T] // cover(w), set under once
}

// Snapshot returns an immutable view of the current window state. The view
// answers Quantile (and variable-span QueryWindow) queries and never sees
// ingestion that happens after this call.
func (q *SlidingQuantile[T]) Snapshot() pipeline.View[T] {
	q.core.Lock()
	defer q.core.Unlock()
	v := q.viewLocked()
	v.panes = append([]*summary.Summary[T](nil), v.panes...)
	return v
}

// cover folds the parts covering the newest span elements — the partial
// pane if there is one, then the newest panes back to the first that brings
// the count to span, in that order — into one summary; nil when there is no
// part. A lone part is returned as it is; summary.Merge writes fresh
// output, so no part is mutated.
func (s *QuantileSnapshot[T]) cover(span int) *summary.Summary[T] {
	var parts []*summary.Summary[T]
	var covered int64
	if s.partial != nil {
		parts, covered = append(parts, s.partial), s.partial.N
	}
	for i := len(s.panes) - 1; i >= 0 && covered < int64(span); i-- {
		parts = append(parts, s.panes[i])
		covered += s.panes[i].N
	}
	return fold(parts, summary.Merge[T])
}

// wholeWindow returns cover(w), folded on the first call.
func (s *QuantileSnapshot[T]) wholeWindow() *summary.Summary[T] {
	s.once.Do(func() { s.whole = s.cover(s.w) })
	return s.whole
}

// span returns the fold covering the newest w elements: the memoised one
// for the whole window, a fresh one for a shorter span.
func (s *QuantileSnapshot[T]) span(w int) *summary.Summary[T] {
	if w == s.w {
		return s.wholeWindow()
	}
	return s.cover(w)
}

// Count reports the whole-stream length the snapshot was taken at.
func (s *QuantileSnapshot[T]) Count() int64 { return s.count }

// Size reports the total retained summary entries.
func (s *QuantileSnapshot[T]) Size() int {
	total := 0
	if s.partial != nil {
		total += s.partial.Size()
	}
	for _, p := range s.panes {
		total += p.Size()
	}
	return total
}

// Eps reports the snapshot's error bound.
func (s *QuantileSnapshot[T]) Eps() float64 { return s.eps }

// WindowSize reports W.
func (s *QuantileSnapshot[T]) WindowSize() int { return s.w }

// Query returns an eps-approximate phi-quantile over the most recent W
// elements as of the snapshot. It panics on an empty window (use Quantile
// for the non-panicking form).
func (s *QuantileSnapshot[T]) Query(phi float64) T { return s.QueryWindow(phi, s.w) }

// QueryWindow answers the variable-size query over the most recent w
// elements as of the snapshot, w <= W.
func (s *QuantileSnapshot[T]) QueryWindow(phi float64, w int) T {
	checkSpan(w, s.w)
	m := s.span(w)
	if m == nil || m.N == 0 {
		panic("window: quantile query on empty window")
	}
	return m.Query(phi)
}

// Quantile implements pipeline.View; ok is false on an empty window.
func (s *QuantileSnapshot[T]) Quantile(phi float64) (T, bool) {
	m := s.wholeWindow()
	if m == nil || m.N == 0 {
		var z T
		return z, false
	}
	return m.Query(phi), true
}

// HeavyHitters implements pipeline.View; quantile sketches do not answer
// frequency queries.
func (s *QuantileSnapshot[T]) HeavyHitters(float64) ([]pipeline.Item[T], bool) { return nil, false }

// Frequency implements pipeline.View; quantile sketches do not answer
// point-frequency queries.
func (s *QuantileSnapshot[T]) Frequency(T) (int64, bool) { return 0, false }
