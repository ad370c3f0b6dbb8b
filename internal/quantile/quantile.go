// Package quantile implements the paper's epsilon-approximate quantile
// estimation over data streams (Section 5.2): Greenwald-Khanna's
// sensor-network algorithm extended to the stream model with an exponential
// histogram of summaries. Each incoming window is sorted (the GPU-
// accelerated step) and held until the next one is sorted too; the pair is
// then reduced to one (eps/2)-approximate summary with exact ranks, read
// from both runs by bisection without merging them, and inserted as a
// bucket at level 0 (DESIGN.md §11); whenever two buckets share a
// level they are combined by a merge and, once the result outgrows its entry
// budget, a prune that spends a fixed fraction of the error headroom the
// bucket has left, so the total error never exceeds eps at any stream length
// (DESIGN.md §11).
//
// Windowing, buffering, lifecycle, locking, and telemetry come from the
// shared internal/pipeline core; this package contributes the
// sort -> summarize -> cascade-combine sink. A combine that prunes is one
// fused merge-and-prune pass (summary.MergePruneInto), and the storage of
// consumed never-pruned buckets is recycled, through the process-wide
// spare store every estimator shares (pipeline.TakeSpare), into the next
// bucket built to their size (DESIGN.md §11, §13). Queries are
// safe under concurrent ingestion, and Snapshot returns an immutable view:
// a view is always merged, pruned or copied into storage of its own, never
// a bucket, so recycling cannot reach it. The view is pruned once, to the budget the
// error its parts have proved (summary.Certificate) leaves below 7eps/8,
// and claims its own certificate as Eps (DESIGN.md §11). It is
// built by one streamed merge chain over its parts, fused with that prune
// (summary.MergePruneAll), which reads the parts in place and writes only
// the view's entries and a few small blocks: no intermediate merge is
// materialized (DESIGN.md §11).
package quantile

import (
	"fmt"
	"math"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// How eps is spent (DESIGN.md §11). A sampled pair of
// windows spends eps/2 at level 0; the cascade may bring a bucket up to the
// cap, eps less viewShare, and each prune spends 1/budgetShare of whatever
// headroom its bucket still has below the cap. The view's one final prune
// spends what its parts' certificates leave below the cap, and at least the
// viewShare of eps the a-priori account keeps back for it.
const (
	// windowMultiple sizes the default sort window, in units of ceil(1/eps).
	// Level 0 spans two sort windows, so it keeps every
	// (2*windowMultiple)-th rank of the pair.
	windowMultiple = 4
	viewShare      = 1.0 / 8
	budgetShare    = 8
)

// pruneBudget returns the entry budget b of a prune whose grid spends no
// more than 1/budgetShare of headroom: 1/(2b) <= headroom/budgetShare. Its
// rounding adds 1/(2N) < 1/(2b), since a pruned bucket holds more than b
// values, so a prune spends under twice that share. Headroom therefore
// shrinks by a constant factor per prune and never reaches zero, which is
// what frees the cascade from an a-priori stream length. A budget too large
// for an int saturates; no summary can outgrow that one.
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
	viewB int               // entry budget of the view's final prune when its parts leave under eps/8
	core  *pipeline.Core[T] // the lock-side API the sink and query paths use

	// levels[k] is the bucket covering 2^k pairs of windows, empty while
	// that level is. A bucket's spent error is what its pairs spent at
	// level 0 (the largest of them) plus every prune on the way up.
	levels []bucket[T]
	n      int64 // elements folded into buckets or held (excludes buffered)

	// held is the first sorted window of a pair, kept until the second one
	// arrives and the two become one level-0 bucket; nil between pairs. It
	// is a copy, into storage borrowed from the spare store for the pair:
	// the core refills the window it was sorted in.
	held []T

	// certs[k], when not negative, is levels[k].Certificate(), kept from
	// one snapshot to the next until mergeWindow replaces the bucket. It
	// lives here under the core lock, not in the Summary: views are shared
	// immutably across goroutines, so a field written lazily there would
	// race. It holds numbers, not buckets, so it pins no consumed storage.
	certs []float64

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
		total += b.size()
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
		if !b.empty() {
			live++
		}
	}
	return live
}

// windowSummary reduces two sorted windows (either may be empty) to the
// compact level-0 summary of their sorted concatenation, built in dst's
// storage (nil allocates), with Eps the error the reduction actually
// spent: eps/2 when ranks were sampled, and nothing when every rank was
// kept — the sampler reports step/(2w) for those too, which for a short
// flushed window exceeds eps although no query against it can miss.
func windowSummary[T sorter.Value](dst *summary.Compact[T], a, b []T, eps float64) *summary.Compact[T] {
	s := summary.SamplePairInto(dst, a, b, eps)
	if s.Size() == len(a)+len(b) {
		s.Eps = 0
	}
	return s
}

// bucket is one level of the cascade. It is compact, its samples with the
// rank bounds left implicit (summary.Compact), while every combine that
// built it merged whole, and a Summary once one pruned it (or once its
// runs outgrew summary.MaxRuns); the empty bucket has neither.
type bucket[T sorter.Value] struct {
	c *summary.Compact[T]
	s *summary.Summary[T]
}

func (b bucket[T]) empty() bool { return b.c == nil && b.s == nil }

// part is the bucket as a merge part; the bucket must not be empty.
func (b bucket[T]) part() summary.Part[T] {
	if b.c != nil {
		return b.c
	}
	return b.s
}

func (b bucket[T]) size() int {
	if b.empty() {
		return 0
	}
	return b.part().Size()
}

// spent is the error the bucket has spent.
func (b bucket[T]) spent() float64 {
	if b.c != nil {
		return b.c.Eps
	}
	return b.s.Eps
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
		e.held = append(pipeline.TakeSpareAtLeast[T](len(win)), win...)
		e.core.AddSort(time.Since(t0), 0)
		return
	}
	s := bucket[T]{c: windowSummary(takeSpare[T](summary.SampledLen(int64(len(e.held)+len(win)), e.eps)), e.held, win, e.eps)}
	pipeline.PutSpare(e.held)
	e.held = nil
	e.core.AddSort(time.Since(t0), 0)

	for k := range e.levels {
		old := e.levels[k]
		if old.empty() {
			e.levels[k] = s
			if k < len(e.certs) {
				e.certs[k] = -1
			}
			return
		}
		e.levels[k] = bucket[T]{}
		s = e.combine(k, old, s)
	}
	e.levels = append(e.levels, s)
}

// combine merges two buckets of level k into the bucket of level k+1. The
// merge costs no error (the result has spent what the worse input had); a
// result within the entry budget its remaining headroom affords is merged
// whole — compact, into spare storage of its size if the store has some,
// when both inputs are — and a larger one is merged and pruned to the
// budget in one fused pass into a fresh Summary, spending 1/(2b) and the
// grid's rounding more; a compact input is read through its reader. The
// inputs are consumed: their storage may go to the spare store.
func (e *Estimator[T]) combine(k int, a, b bucket[T]) bucket[T] {
	budget := pruneBudget(e.cap - math.Max(a.spent(), b.spent()))
	size := a.size() + b.size()
	t0 := time.Now()
	var m bucket[T]
	switch {
	case size-1 > budget: // not size > budget+1: a saturated budget would overflow
		// One pass did both; its time is the compress stage's, and both
		// stages still count the entries they visit.
		m.s = summary.MergePruneInto(nil, a.part(), b.part(), budget)
		e.core.AddMerge(0, int64(size))
		e.core.AddCompress(time.Since(t0), int64(size))
	case a.c != nil && b.c != nil && len(a.c.Runs)+len(b.c.Runs) <= summary.MaxRuns:
		m.c = summary.MergeCompactInto(takeSpare[T](size), a.c, b.c)
		e.core.AddMerge(time.Since(t0), int64(size))
	default:
		m.s = summary.MergeInto(nil, a.part(), b.part())
		e.core.AddMerge(time.Since(t0), int64(size))
	}
	e.recycle(a)
	if b != a {
		// One bucket merged with itself (TestCombineFortyLevels) is
		// recycled once: put twice, another estimator could take it
		// between the two puts and a third after the second.
		e.recycle(b)
	}
	return m
}

// certificate returns level k's live bucket's Certificate, memoised in
// certs until mergeWindow replaces the bucket. The caller holds the core
// lock.
func (e *Estimator[T]) certificate(k int) float64 {
	for len(e.certs) <= k {
		e.certs = append(e.certs, -1)
	}
	if e.certs[k] < 0 {
		e.certs[k] = e.levels[k].part().Certificate()
	}
	return e.certs[k]
}

// viewBudget is the entry budget of the view's one prune of an n-element
// merge whose parts certify at most c, which by GK's merge lemma the merge
// does too. The prune may spend the headroom h = 7eps/8 - c less its grid
// rounding 1/(2n), so b = ceil(1/(2h)) and the view proves at most 7eps/8:
// a valid cascade bucket still, with eps/8 to spare. With less headroom
// than eps/8 it is viewB, the budget of the share the cascade's a-priori
// account keeps back for the view.
func (e *Estimator[T]) viewBudget(c float64, n int64) int {
	h := e.cap - c - 1/(2*float64(n))
	if h < viewShare*e.eps {
		return e.viewB
	}
	return int(math.Ceil(1 / (2 * h)))
}

// takeSpare hands out spare storage for a compact bucket of n entries:
// what the store holds in n's classes of values and of run indexes.
func takeSpare[T sorter.Value](n int) *summary.Compact[T] {
	return &summary.Compact[T]{Vals: pipeline.TakeSpare[T](n), Src: pipeline.TakeSpare[uint8](n)}
}

// recycle gives a consumed bucket's storage to the spare store if the
// bucket is compact. A Summary bucket is left to the collector: a bucket
// that size is built by a prune, which writes fresh storage, so a spare
// that size would only add to the heap.
func (e *Estimator[T]) recycle(b bucket[T]) {
	if b.c != nil {
		pipeline.PutSpare(b.c.Vals)
		pipeline.PutSpare(b.c.Src)
	}
}

// snapshotLocked merges the live buckets, the held window and the buffered
// partial window into one queryable summary without disturbing the
// estimator state, and prunes it once to the budget the parts' certified
// error leaves it (viewBudget): what queries, the wire and cross-shard
// merges handle is O(1/eps) entries however long the stream, and fewer the
// less error the buckets have proved. The view's Eps is its own
// Certificate. The result is cached until more elements arrive; the caller
// must hold the core lock. The returned summary never shares storage with a
// bucket — bucket storage is recycled — so it is immutable and may safely
// outlive the locked region.
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
	var acc *summary.Summary[T]
	if parts, c := e.viewPartsLocked(buffered); len(parts) > 0 {
		// One streamed merge chain over every part, pruned to the view's
		// budget as it goes, into fresh storage: the view never shares a
		// bucket's, which is recycled.
		acc = summary.MergePruneAll(nil, parts, e.viewBudget(c, e.n+int64(buffered)))
		acc.Eps = acc.Certificate()
	}
	e.snapCache, e.snapState = acc, state
	return acc
}

// viewPartsLocked lists the parts a view is merged from, with the largest
// certificate among them: the held window with the sorted partial one of
// buffered values, read as the level 0 a Flush would build without
// consuming either, then the buckets by level. Smallest first: every entry
// passes through each merge of the chain from its part's on, so the chain
// does least work with the large parts last. The caller holds the core
// lock, past the barrier.
func (e *Estimator[T]) viewPartsLocked(buffered int) (parts []summary.Part[T], c float64) {
	if len(e.held) > 0 || buffered > 0 {
		t0 := time.Now()
		var p *summary.Compact[T]
		e.core.SortedPartialLocked(func(partial []T) { p = windowSummary(nil, e.held, partial, e.eps) })
		parts, c = append(parts, p), p.Certificate()
		e.core.AddSort(time.Since(t0), 0)
	}
	for k, b := range e.levels {
		if !b.empty() {
			parts, c = append(parts, b.part()), max(c, e.certificate(k))
		}
	}
	return parts, c
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
