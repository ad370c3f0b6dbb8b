// Package window implements the paper's sliding-window variants of the
// epsilon-approximate frequency and quantile queries (Section 5.3): queries
// over the most recent W stream elements, for both fixed-size windows and
// variable-size ("any suffix up to W") queries.
//
// The published text truncates partway through Section 5.3; the
// reconstruction here follows the setup it describes — the stream is cut
// into panes whose per-pane summaries are built by sorting (the GPU-
// accelerated step, identical to the whole-stream algorithms) and a ring of
// recent panes answers queries, with the pane size chosen so that boundary
// quantization and per-pane summarization each cost at most eps*W/2.
// DESIGN.md records this assumption.
//
// Pane buffering, lifecycle, locking, and telemetry come from the shared
// internal/pipeline core (a pane is just a window by another name); this
// file contributes the sort -> histogram -> compress pane sink and the
// pane ring. Each family reads its ring one way: its snapshot type, built
// over the live ring by viewLocked, folds the covering panes pairwise in
// O(W log P) (fold, DESIGN.md §24), and live queries, Snapshot and the
// cross-process merges all answer through it. Queries are safe under
// concurrent ingestion; Snapshot returns an immutable view whose pane
// histograms are protected from the expiry freelist by a copy-on-write
// mark.
package window

import (
	"time"

	"gpustream/internal/histogram"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// Item is a reported element with its estimated in-window frequency.
type Item[T sorter.Value] = pipeline.Item[T]

// freqPane is one completed pane: its filtered histogram and total count.
// shared marks the bins as aliased by a FrequencySnapshot, which excludes
// them from the expiry freelist (copy-on-write: the ring allocates fresh
// storage instead of overwriting what a snapshot still reads).
type freqPane[T sorter.Value] struct {
	bins   []histogram.Bin[T]
	total  int64
	shared bool
}

// SlidingFrequency answers eps-approximate frequency queries over the most
// recent W elements. The stream is split into panes of ceil(eps*W/2)
// elements; each completed pane is sorted, collapsed to a histogram, and
// compressed by dropping bins with count <= eps*pane/2. Estimates are within
// eps*W of the true frequency over the window, with no false negatives at
// support s when querying with threshold (s-eps)*W.
//
// One writer and any number of query goroutines may use the estimator
// concurrently.
type SlidingFrequency[T sorter.Value] struct {
	sliding[T, freqPane[T]]
	// binScratch is the reusable histogram scratch. The bins storage of
	// expired panes goes to the spare store (pipeline.PutSpare), which the
	// next pane takes it from.
	binScratch []histogram.Bin[T]
}

// NewSlidingFrequency returns a sliding-window frequency estimator of window
// size w and error eps, sorting panes with s.
func NewSlidingFrequency[T sorter.Value](eps float64, w int, s sorter.Sorter[T], opts ...pipeline.Option) *SlidingFrequency[T] {
	f := &SlidingFrequency[T]{}
	f.init(eps, w, s, f.sealSorted, opts)
	return f
}

// sealSorted is the merge-stage half of the pane pipeline: it receives a
// pane the core has already sorted (inline, or on the sort stage goroutine
// in async mode), collapses it to a histogram, compresses it, and expires
// old panes. The core holds the lock around the call in both modes.
func (f *SlidingFrequency[T]) sealSorted(win []T) {
	// The histogram collapse belongs to the paper's sort stage accounting;
	// the values were already counted when the core timed the sort itself.
	t0 := time.Now()
	f.binScratch = histogram.AppendSorted(f.binScratch[:0], win)
	bins := f.binScratch
	f.core.AddSort(time.Since(t0), 0)

	// Compress: drop light bins; each drop undercounts an item by at most
	// eps*pane/2, and with <= 2/eps panes in a window the total stays
	// under eps*W/2.
	t2 := time.Now()
	thresh := int64(f.eps * float64(len(win)) / 2)
	kept := bins[:0]
	var total int64
	for _, b := range bins {
		total += b.Count
		if b.Count > thresh {
			kept = append(kept, b)
		}
	}
	f.core.AddCompress(time.Since(t2), int64(len(bins)))

	// The pane copy reuses storage recycled from expired panes.
	paneBins := append(pipeline.TakeSpareAtLeast[histogram.Bin[T]](len(kept)), kept...)
	f.panes = append(f.panes, freqPane[T]{bins: paneBins, total: total})

	// Keep enough panes to cover W elements beyond the buffer. Bins aliased
	// by a snapshot are abandoned to it rather than recycled.
	for _, p := range f.expireLocked() {
		if !p.shared {
			pipeline.PutSpare(p.bins)
		}
	}
}

// viewLocked builds the estimator's view: the live ring itself, not a copy,
// and the partial pane sorted and collapsed into a histogram of its own.
// Caller holds the core lock, and a view over the live ring answers only
// while it does; Snapshot makes the view outlive it.
func (f *SlidingFrequency[T]) viewLocked() *FrequencySnapshot[T] {
	// Drain in-flight panes so the ring covers the whole emitted prefix and
	// the sorter is idle for the partial-pane sort.
	f.core.BarrierLocked()
	v := &FrequencySnapshot[T]{
		eps:          f.eps,
		w:            f.w,
		count:        f.core.CountLocked(),
		panes:        f.panes,
		partialCount: int64(f.core.BufferedLocked()),
	}
	f.core.SortedPartialLocked(func(sorted []T) { v.partialBins = histogram.FromSorted(sorted) })
	return v
}

// Query returns the elements whose estimated frequency over the most recent
// W elements is at least (s - eps) * min(W, N), ordered by decreasing
// frequency. Safe under concurrent ingestion.
func (f *SlidingFrequency[T]) Query(s float64) []Item[T] {
	return f.QueryWindow(s, f.w)
}

// QueryWindow answers the variable-size query over the most recent w
// elements, w <= W. Error is bounded by eps*W (absolute, in elements).
// Safe under concurrent ingestion.
func (f *SlidingFrequency[T]) QueryWindow(s float64, w int) []Item[T] {
	defer f.lockQuery()()
	return f.viewLocked().QueryWindow(s, w)
}

// Estimate returns the estimated frequency of v over the most recent W
// elements. Safe under concurrent ingestion.
func (f *SlidingFrequency[T]) Estimate(v T) int64 {
	defer f.lockQuery()()
	return f.viewLocked().Estimate(v)
}

// FrequencySnapshot is an immutable point-in-time view of a sliding-window
// frequency estimator. It aliases the live pane histograms under the
// copy-on-write discipline (the ring abandons shared bins to the snapshot
// instead of recycling them on expiry), so taking one costs O(partial pane).
// A FrequencySnapshot is safe for concurrent use and implements
// pipeline.View.
type FrequencySnapshot[T sorter.Value] struct {
	eps          float64
	w            int
	count        int64
	panes        []freqPane[T] // oldest first; bins shared with the estimator
	partialBins  []histogram.Bin[T]
	partialCount int64
}

// Snapshot returns an immutable view of the current window state. The view
// answers HeavyHitters/Frequency (and variable-span QueryWindow) queries
// and never sees ingestion that happens after this call.
func (f *SlidingFrequency[T]) Snapshot() pipeline.View[T] {
	f.core.Lock()
	defer f.core.Unlock()
	v := f.viewLocked()
	for i := range f.panes {
		f.panes[i].shared = true
	}
	v.panes = append([]freqPane[T](nil), f.panes...)
	return v
}

// cover folds the parts covering the newest span elements — the partial
// pane, then the newest panes back to the first that brings the count to
// span, in that order — into one histogram, returned with the element
// count it represents. histogram.Merge writes fresh output, so no part is
// mutated.
func (s *FrequencySnapshot[T]) cover(span int) ([]histogram.Bin[T], int64) {
	parts := [][]histogram.Bin[T]{s.partialBins}
	covered := s.partialCount
	for i := len(s.panes) - 1; i >= 0 && covered < int64(span); i-- {
		parts = append(parts, s.panes[i].bins)
		covered += s.panes[i].total
	}
	return fold(parts, histogram.Merge[T]), covered
}

// Count reports the whole-stream length the snapshot was taken at.
func (s *FrequencySnapshot[T]) Count() int64 { return s.count }

// Size reports the retained histogram bins across panes and the partial
// pane.
func (s *FrequencySnapshot[T]) Size() int {
	total := len(s.partialBins)
	for _, p := range s.panes {
		total += len(p.bins)
	}
	return total
}

// Eps reports the snapshot's error bound.
func (s *FrequencySnapshot[T]) Eps() float64 { return s.eps }

// WindowSize reports W.
func (s *FrequencySnapshot[T]) WindowSize() int { return s.w }

// Query answers the support-sp frequency query over the most recent W
// elements as of the snapshot.
func (s *FrequencySnapshot[T]) Query(sp float64) []Item[T] { return s.QueryWindow(sp, s.w) }

// QueryWindow answers the variable-size query over the most recent w
// elements as of the snapshot, w <= W: the items whose merged count is at
// least (sp - eps) times the elements covered, at most w.
func (s *FrequencySnapshot[T]) QueryWindow(sp float64, w int) []Item[T] {
	checkSupport(sp)
	checkSpan(w, s.w)
	bins, covered := s.cover(w)
	thresh := (sp - s.eps) * float64(min(covered, int64(w)))
	var out []Item[T]
	for _, b := range bins {
		if float64(b.Count) >= thresh {
			out = append(out, Item[T]{Value: b.Value, Freq: b.Count})
		}
	}
	pipeline.SortItems(out)
	return out
}

// Estimate returns the estimated frequency of v over the most recent W
// elements as of the snapshot.
func (s *FrequencySnapshot[T]) Estimate(v T) int64 {
	bins, _ := s.cover(s.w)
	for _, b := range bins {
		if b.Value == v {
			return b.Count
		}
	}
	return 0
}

// Quantile implements pipeline.View; frequency sketches do not answer
// quantile queries.
func (s *FrequencySnapshot[T]) Quantile(float64) (T, bool) { var z T; return z, false }

// HeavyHitters implements pipeline.View.
func (s *FrequencySnapshot[T]) HeavyHitters(support float64) ([]Item[T], bool) {
	return s.Query(support), true
}

// Frequency implements pipeline.View.
func (s *FrequencySnapshot[T]) Frequency(v T) (int64, bool) { return s.Estimate(v), true }
