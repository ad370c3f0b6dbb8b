// Package frequency implements the paper's epsilon-approximate frequency
// estimation over data streams (Section 5.1): Manku and Motwani's
// window-based lossy counting, with the per-window histogram computed by
// sorting — the step the GPU accelerates — followed by the merge and
// compress operations on the summary.
//
// Windowing, buffering, lifecycle, locking, and telemetry come from the
// shared internal/pipeline core; this package contributes only the
// sort -> histogram -> merge -> compress sink. Queries are safe under
// concurrent ingestion, and Snapshot returns an immutable view that keeps
// answering after the stream moves on.
package frequency

import (
	"fmt"
	"math"
	"time"

	"gpustream/internal/histogram"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// Item is a reported stream element with its estimated frequency.
type Item[T sorter.Value] = pipeline.Item[T]

// shell is the ingest surface promoted into Estimator; the unexported alias
// keeps the embedded field off the exported API.
type shell[T sorter.Value] = pipeline.Ingest[T]

// entry is one summary element: estimated frequency f and maximum
// undercount delta (the element may have appeared up to delta times before
// it entered the summary).
type entry[T sorter.Value] struct {
	value T
	freq  int64
	delta int64
}

// Estimator is the lossy-counting frequency summary. For a user-specified
// eps it buffers windows of ceil(1/eps) elements; each full window is
// sorted, collapsed to a histogram, merged into the summary and compressed.
// Estimated frequencies undercount true ones by at most eps*N and the
// summary holds O((1/eps) log(eps*N)) entries.
//
// Process, ProcessSlice, Flush, Close, Count, Stats, SetTuner, Knobs, Async
// and WindowSize are promoted from the shared ingest shell. WindowSize is
// ceil(1/eps) by default, larger under a pipeline.WithWindow override or a
// tuner's schedule; any schedule a tuner produces with windows >=
// ceil(1/eps) preserves the eps guarantee (see maxBucket), and the adaptive
// controller never schedules below the construction window, which enforces
// that floor.
//
// One writer and any number of query goroutines may use an Estimator
// concurrently; queries flush the partial window and answer over a
// consistent summary state.
type Estimator[T sorter.Value] struct {
	shell[T]
	eps  float64
	core *pipeline.Core[T] // the lock-side API the sink and query paths use
	n    int64             // elements folded into the summary (excludes buffered)
	// maxBucket is the highest completed-bucket index observed so far,
	// max over merges of floor(n/w) at the then-current window size w.
	// With a static window floor(n/w) is monotone in n and maxBucket is
	// exactly the classic bucket index, bit-identical to lossy counting;
	// under a dynamic schedule a window *growth* makes floor(n/w) dip, and
	// taking the running max keeps both the new-entry delta and the
	// compress threshold valid bounds (every window is >= ceil(1/eps), so
	// at most eps*n buckets ever complete).
	maxBucket int64
	// entries is the summary. Each window's merge writes a new one into
	// storage taken from the process-wide spare store (DESIGN.md §13) and
	// puts the old one back, unless shared marks it as aliased by a
	// Snapshot: the array is then abandoned to the snapshot
	// (copy-on-write). A window's histogram bins, which nothing keeps past
	// the window, are borrowed from the same store.
	entries []entry[T]
	shared  bool
}

// NewEstimator returns a lossy-counting estimator with error eps, sorting
// windows with s. A pipeline.WithWindow override below the lossy-counting
// floor ceil(1/eps) is clamped up to it — a smaller window would complete
// buckets faster than the eps*N deletion budget allows.
func NewEstimator[T sorter.Value](eps float64, s sorter.Sorter[T], opts ...pipeline.Option) *Estimator[T] {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("frequency: eps %v out of (0, 1)", eps))
	}
	cfg := pipeline.Resolve(opts)
	e := &Estimator[T]{eps: eps}
	e.core = pipeline.NewStagedCore(Window(eps, cfg.Window), s, e.mergeWindow)
	e.shell = pipeline.IngestOf(e.core)
	if cfg.Async {
		e.core.StartAsync()
	}
	return e
}

// Window is the sort window an Estimator at eps runs: the lossy-counting
// floor ceil(1/eps), or a larger override.
func Window(eps float64, override int) int {
	return max(pipeline.WindowLen(math.Ceil(1/eps)), override)
}

// Eps reports the configured error bound.
func (e *Estimator[T]) Eps() float64 { return e.eps }

// SummarySize reports the number of summary entries (excluding the buffer).
func (e *Estimator[T]) SummarySize() int {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.BarrierLocked()
	return len(e.entries)
}

// mergeWindow is the merge-stage half of the pipeline: it receives a window
// the core has already sorted (inline, or on the sort stage goroutine in
// async mode) and runs histogram -> merge -> compress. The core holds the
// lock around the call in both modes.
func (e *Estimator[T]) mergeWindow(win []T) {
	// Histogram computation: collapse the sorted window to (value, count)
	// bins. The collapse belongs to the paper's histogram (sort) stage, so
	// its time lands in Stats.Sort; the values were already counted when the
	// core timed the sort itself.
	t0 := time.Now()
	bins := histogram.AppendSorted(pipeline.TakeSpareAtLeast[histogram.Bin[T]](len(win)), win)
	defer pipeline.PutSpare(bins)
	e.core.AddSort(time.Since(t0), 0)

	// New entries may have been deleted any time up to the last completed
	// bucket before this window, so their undercount is bounded by that
	// bucket index; compress below may drop entries only up to the number
	// of buckets completed *after* this window, keeping the undercount
	// within eps*N even when a partial window is flushed early. Both bounds
	// use the running-max bucket index, which equals floor(n/w) whenever
	// the window has been static (see the maxBucket field comment).
	newDelta := e.maxBucket
	e.n += int64(len(win))
	if b := e.n / int64(e.core.WindowSizeLocked()); b > e.maxBucket {
		e.maxBucket = b
	}

	// Merge: both the summary and the histogram are value-ascending, so a
	// single linear pass inserts or updates every bin. The pass writes into
	// spare storage that holds its largest output, so it never grows by
	// appends.
	t1 := time.Now()
	merged := pipeline.TakeSpareAtLeast[entry[T]](len(e.entries) + len(bins))
	i, j := 0, 0
	for i < len(e.entries) && j < len(bins) {
		switch {
		case e.entries[i].value < bins[j].Value:
			merged = append(merged, e.entries[i])
			i++
		case e.entries[i].value > bins[j].Value:
			merged = append(merged, entry[T]{value: bins[j].Value, freq: bins[j].Count, delta: newDelta})
			j++
		default:
			ent := e.entries[i]
			ent.freq += bins[j].Count
			merged = append(merged, ent)
			i++
			j++
		}
	}
	merged = append(merged, e.entries[i:]...)
	for ; j < len(bins); j++ {
		merged = append(merged, entry[T]{value: bins[j].Value, freq: bins[j].Count, delta: newDelta})
	}
	e.core.AddMerge(time.Since(t1), int64(len(e.entries))+int64(len(bins)))

	// Compress: drop entries whose possible true frequency cannot exceed
	// the bucket threshold; this bounds the summary size.
	t2 := time.Now()
	kept := merged[:0]
	for _, ent := range merged {
		if ent.freq+ent.delta > e.maxBucket {
			kept = append(kept, ent)
		}
	}
	e.core.AddCompress(time.Since(t2), int64(len(merged)))
	// Copy-on-write hand-off: if a Snapshot aliases the outgoing entries
	// array, abandon it to the snapshot; otherwise give it back to the store.
	if e.shared {
		e.shared = false
	} else {
		pipeline.PutSpare(e.entries)
	}
	e.entries = kept
}

// queryEntries answers the epsilon-approximate frequency query over a
// value-ascending summary: every entry with estimated frequency at least
// (s - eps) * n, ordered by decreasing frequency.
func queryEntries[T sorter.Value](entries []entry[T], n int64, eps, s float64) []Item[T] {
	if s < 0 || s > 1 {
		panic(fmt.Sprintf("frequency: support %v out of [0, 1]", s))
	}
	thresh := (s - eps) * float64(n)
	var out []Item[T]
	for _, ent := range entries {
		if float64(ent.freq) >= thresh {
			out = append(out, Item[T]{Value: ent.value, Freq: ent.freq})
		}
	}
	pipeline.SortItems(out)
	return out
}

// estimateEntries binary-searches a value-ascending summary for v.
func estimateEntries[T sorter.Value](entries []entry[T], v T) int64 {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].value < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(entries) && entries[lo].value == v {
		return entries[lo].freq
	}
	return 0
}

// Query returns every element whose estimated frequency is at least
// (s - eps) * N, ordered by decreasing frequency — the paper's
// epsilon-approximate frequency query. The result has no false negatives:
// any element with true frequency >= s*N is present. Estimated frequencies
// undercount by at most eps*N. Safe under concurrent ingestion.
func (e *Estimator[T]) Query(s float64) []Item[T] {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.FlushLocked()
	return queryEntries(e.entries, e.n, e.eps, s)
}

// Estimate returns the estimated frequency of v (0 if not tracked). Safe
// under concurrent ingestion.
func (e *Estimator[T]) Estimate(v T) int64 {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.FlushLocked()
	return estimateEntries(e.entries, v)
}

// TopK returns the k elements with the highest estimated frequencies (fewer
// if the summary tracks fewer), ordered by decreasing frequency.
func (e *Estimator[T]) TopK(k int) []Item[T] { return pipeline.TopK(e.Query, k) }

// SummaryEntry is an exported view of one lossy-counting summary entry: an
// estimated frequency Freq that undercounts the true one by at most Delta.
type SummaryEntry[T sorter.Value] struct {
	Value T
	Freq  int64
	Delta int64
}

// Snapshot is an immutable point-in-time view of a lossy-counting summary.
// It aliases the live estimator's entries array under the copy-on-write
// discipline (the estimator abandons shared storage at its next window),
// so taking one costs O(partial window) for the flush and O(1) beyond it.
// A Snapshot is safe for concurrent use and implements pipeline.View.
type Snapshot[T sorter.Value] struct {
	entries []entry[T]
	n       int64
	eps     float64
}

// Snapshot flushes any buffered values and returns an immutable view of the
// summary. The view answers HeavyHitters/Frequency queries and never sees
// ingestion that happens after this call.
func (e *Estimator[T]) Snapshot() pipeline.View[T] {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.FlushLocked()
	e.shared = true
	return &Snapshot[T]{entries: e.entries, n: e.n, eps: e.eps}
}

// Count reports the stream length the snapshot covers.
func (s *Snapshot[T]) Count() int64 { return s.n }

// Size reports the retained summary entries.
func (s *Snapshot[T]) Size() int { return len(s.entries) }

// Eps reports the snapshot's error bound.
func (s *Snapshot[T]) Eps() float64 { return s.eps }

// Query answers the epsilon-approximate frequency query at support sp.
func (s *Snapshot[T]) Query(sp float64) []Item[T] { return queryEntries(s.entries, s.n, s.eps, sp) }

// Estimate returns the estimated frequency of v (0 if not tracked).
func (s *Snapshot[T]) Estimate(v T) int64 { return estimateEntries(s.entries, v) }

// TopK returns the k highest-frequency entries.
func (s *Snapshot[T]) TopK(k int) []Item[T] { return pipeline.TopK(s.Query, k) }

// Entries exports a copy of the summary in ascending value order. Sharded
// ingestion merges per-shard entries by summing Freq and Delta for equal
// values: undercounts are additive across disjoint substreams, so the
// merged summary stays eps-approximate over the combined stream.
func (s *Snapshot[T]) Entries() []SummaryEntry[T] {
	out := make([]SummaryEntry[T], len(s.entries))
	for i, ent := range s.entries {
		out[i] = SummaryEntry[T]{Value: ent.value, Freq: ent.freq, Delta: ent.delta}
	}
	return out
}

// Quantile implements pipeline.View; frequency sketches do not answer
// quantile queries.
func (s *Snapshot[T]) Quantile(float64) (T, bool) { var z T; return z, false }

// HeavyHitters implements pipeline.View.
func (s *Snapshot[T]) HeavyHitters(support float64) ([]Item[T], bool) { return s.Query(support), true }

// Frequency implements pipeline.View.
func (s *Snapshot[T]) Frequency(v T) (int64, bool) { return s.Estimate(v), true }
