// Package corrsum implements epsilon-approximate correlated sum aggregate
// queries over streams of (key, value) pairs, the second extension the
// paper names in Section 1.2: given a threshold t (often itself a quantile
// of the keys), estimate SUM(value) over all pairs with key <= t, using
// limited memory.
//
// Structurally this is the quantile estimator of Section 5.2 with counts
// generalized to weights: each window of pairs is sorted by key (the
// GPU-accelerated step), reduced to a weighted summary, and inserted into
// an exponential histogram whose same-id buckets combine by weighted merge
// and prune with a per-level error budget.
package corrsum

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// Pair is one stream element: a key and a non-negative value.
type Pair struct {
	X float32
	Y float64
}

// Estimator answers correlated-sum queries within
// eps * totalWeight + O(levels) * maxWeight.
type Estimator struct {
	eps     float64
	window  int
	levels  int
	pruneB  int
	sorter  sorter.Sorter[float32]
	buckets map[int]*summary.Weighted
	buf     []Pair
	n       int64
	stats   pipeline.Stats
}

// NewEstimator returns a correlated-sum estimator with error eps for
// streams of up to capacity pairs (capacity <= 0 picks a generous
// default), sorting window keys with s.
func NewEstimator(eps float64, capacity int64, s sorter.Sorter[float32]) *Estimator {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("corrsum: eps %v out of (0, 1)", eps))
	}
	if capacity <= 0 {
		capacity = 1 << 40
	}
	e := &Estimator{
		eps:     eps,
		window:  int(math.Ceil(1 / eps)),
		sorter:  s,
		buckets: make(map[int]*summary.Weighted),
	}
	maxWindows := capacity/int64(e.window) + 1
	e.levels = 1
	for int64(1)<<e.levels < maxWindows {
		e.levels++
	}
	e.levels++
	e.pruneB = int(math.Ceil(float64(e.levels) / eps))
	e.buf = make([]Pair, 0, e.window)
	return e
}

// Eps reports the configured error bound.
func (e *Estimator) Eps() float64 { return e.eps }

// Count reports the number of pairs processed, including buffered ones.
func (e *Estimator) Count() int64 { return e.n + int64(len(e.buf)) }

// SortedValues reports how many keys have passed through the sorter.
func (e *Estimator) SortedValues() int64 { return e.stats.SortedValues }

// Stats returns the unified per-stage pipeline telemetry. Pairs buffer in
// this package (the shared float32 core cannot hold (key, value) tuples),
// but the telemetry schema is the same one every other estimator reports.
func (e *Estimator) Stats() pipeline.Stats { return e.stats }

// SummaryEntries reports total retained entries across buckets.
func (e *Estimator) SummaryEntries() int {
	total := 0
	for _, b := range e.buckets {
		total += b.Size()
	}
	return total
}

// Process consumes one pair. It panics on a negative value, which would
// break the summary's monotone cumulative weights, and on a NaN or +Inf
// one, which would make the total and every later sum NaN or +Inf for good.
func (e *Estimator) Process(p Pair) {
	if p.Y < 0 {
		panic("corrsum: negative value")
	}
	if math.IsNaN(p.Y) || math.IsInf(p.Y, 1) {
		panic("corrsum: non-finite value")
	}
	e.buf = append(e.buf, p)
	if len(e.buf) == e.window {
		e.flush()
	}
}

// ProcessSlice consumes a batch of pairs.
func (e *Estimator) ProcessSlice(pairs []Pair) {
	for _, p := range pairs {
		e.Process(p)
	}
}

// summarizeBuf sorts the buffered pairs by key through the configured
// sorter and builds a weighted summary. The value reattachment is CPU-side:
// the sorter orders the keys (that is the expensive, GPU-offloaded step)
// and values are re-associated by key afterwards.
func (e *Estimator) summarizeBuf(buf []Pair) *summary.Weighted {
	t0 := time.Now()
	xs := make([]float32, len(buf))
	byKey := make(map[float32][]float64, len(buf))
	for i, p := range buf {
		xs[i] = p.X
		byKey[p.X] = append(byKey[p.X], p.Y)
	}
	e.sorter.Sort(xs)
	e.stats.SortedValues += int64(len(xs))
	ys := make([]float64, len(xs))
	for i, x := range xs {
		vals := byKey[x]
		ys[i] = vals[len(vals)-1]
		byKey[x] = vals[:len(vals)-1]
	}
	w := summary.WeightedFromSortedPairs(xs, ys, e.eps)
	e.stats.Sort += time.Since(t0)
	return w
}

// flush turns the buffered window into a bucket and cascades combines.
func (e *Estimator) flush() {
	e.stats.Windows++
	s := e.summarizeBuf(e.buf)
	e.n += int64(len(e.buf))
	e.buf = e.buf[:0]

	id := 1
	for {
		old, ok := e.buckets[id]
		if !ok {
			e.buckets[id] = s
			return
		}
		delete(e.buckets, id)
		t1 := time.Now()
		m := summary.MergeWeighted(old, s)
		e.stats.Merge += time.Since(t1)
		e.stats.MergeOps += int64(m.Size())
		t2 := time.Now()
		s = m.Prune(e.pruneB)
		e.stats.Compress += time.Since(t2)
		e.stats.CompressOps += int64(m.Size())
		id++
		if id > e.levels+1 {
			if top, ok := e.buckets[id]; ok {
				s = summary.MergeWeighted(top, s).Prune(e.pruneB)
			}
			e.buckets[id] = s
			return
		}
	}
}

// snapshot merges live buckets and the buffered partial window.
func (e *Estimator) snapshot() *summary.Weighted {
	var acc *summary.Weighted
	if len(e.buf) > 0 {
		acc = e.summarizeBuf(append([]Pair(nil), e.buf...))
	}
	ids := make([]int, 0, len(e.buckets))
	for id := range e.buckets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if acc == nil {
			acc = e.buckets[id]
		} else {
			acc = summary.MergeWeighted(acc, e.buckets[id])
		}
	}
	return acc
}

// Sum estimates SUM(Y) over all pairs with X <= t.
func (e *Estimator) Sum(t float32) float64 {
	s := e.snapshot()
	if s == nil {
		return 0
	}
	return s.CumWeight(t)
}

// Total reports the estimator's view of SUM(Y) over the whole stream
// (exact, since weights only ever accumulate).
func (e *Estimator) Total() float64 {
	s := e.snapshot()
	if s == nil {
		return 0
	}
	return s.W
}

// SumAtQuantile estimates SUM(Y) over the pairs whose keys fall at or below
// the phi-quantile of the key distribution (by weight) — the paper's
// correlated aggregate formulation.
func (e *Estimator) SumAtQuantile(phi float64) float64 {
	s := e.snapshot()
	if s == nil {
		return 0
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	return s.CumWeight(s.QueryWeight(phi * s.W))
}
