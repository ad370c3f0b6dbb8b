// Package oracle is exact ground truth about a stream and the checks every
// estimator answer is held to (DESIGN.md §19). A Truth is the stream sorted
// by the sorter's value order, with run-length counts; the checkers compare
// an answer with it and return an error naming the first violation, so a
// test, cmd/validate and the acceptance matrix all judge answers by the
// same rules:
//
//   - rank distance: the answer v for target rank r is off by the distance
//     from r to the 1-based ranks v occupies, [#(x < v) + 1, #(x <= v)];
//     a phi-quantile's target is ⌈phi·N⌉ clamped to [1, N], and its bound
//     is eps·N + 1 ranks;
//   - undercount: a frequency estimate, read from the view's complete
//     estimate list, never exceeds the true count and falls short of it by
//     at most eps·N (a sliding window's may exceed it by as much);
//   - support: every value occurring at least support·N times is listed;
//   - a sliding span is the truth of the stream's suffix of that length.
//
// The package imports only the value codec and the view interface, so any
// estimator package's tests can use it.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// Truth is exact ground truth about one stream: its distinct values in the
// sorter's order and the running count up to each.
type Truth[T sorter.Value] struct {
	keys []uint64 // distinct value keys, ascending
	ends []int64  // ends[i] = #(x <= the value of keys[i])
}

// key is v's place in the order: sorter.OrderedKey, which places NaNs and
// infinities where the sorter does, except that -0 and +0 are one value, as
// == (and every summary's merge) sees them.
func key[T sorter.Value](v T) uint64 {
	var zero T
	if v == zero {
		v = zero
	}
	return sorter.OrderedKey(v)
}

// New returns the truth about data; data is not modified.
func New[T sorter.Value](data []T) *Truth[T] {
	keys := make([]uint64, len(data))
	for i, v := range data {
		keys[i] = key(v)
	}
	slices.Sort(keys)
	t := &Truth[T]{}
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			t.ends[len(t.ends)-1]++
			continue
		}
		t.keys = append(t.keys, k)
		t.ends = append(t.ends, int64(i)+1)
	}
	return t
}

// Suffix returns the truth about the last w values of data (all of them
// when w >= len(data)): what a sliding window of span w answers for.
func Suffix[T sorter.Value](data []T, w int) *Truth[T] {
	return New(data[max(len(data)-w, 0):])
}

// N is the stream length.
func (t *Truth[T]) N() int64 {
	if len(t.ends) == 0 {
		return 0
	}
	return t.ends[len(t.ends)-1]
}

// Distinct is the number of distinct values.
func (t *Truth[T]) Distinct() int { return len(t.keys) }

// Value returns the i-th distinct value in ascending order.
func (t *Truth[T]) Value(i int) T { return sorter.FromOrderedKey[T](t.keys[i]) }

// Ranks returns the 1-based ranks v occupies in the sorted stream:
// lo = #(x < v) + 1 and hi = #(x <= v). A value the stream does not
// contain gives hi = lo - 1.
func (t *Truth[T]) Ranks(v T) (lo, hi int64) {
	k := key(v)
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= k })
	if i > 0 {
		lo = t.ends[i-1]
	}
	if i < len(t.keys) && t.keys[i] == k {
		return lo + 1, t.ends[i]
	}
	return lo + 1, lo
}

// Count is the exact number of occurrences of v.
func (t *Truth[T]) Count(v T) int64 {
	lo, hi := t.Ranks(v)
	return hi - lo + 1
}

// Distance is how many ranks v lies from rank r: 0 when v occupies r.
func (t *Truth[T]) Distance(v T, r int64) int64 {
	lo, hi := t.Ranks(v)
	return max(lo-r, r-hi, 0)
}

// Absent returns a value the stream does not contain.
func (t *Truth[T]) Absent() T {
	if len(t.keys) == 0 {
		var zero T
		return zero
	}
	var cand []uint64
	if last := t.keys[len(t.keys)-1]; last < math.MaxUint64 {
		cand = append(cand, last+1)
	}
	if t.keys[0] > 0 {
		cand = append(cand, t.keys[0]-1)
	}
	for i := 1; i < len(t.keys) && len(cand) < 8; i++ {
		if t.keys[i]-t.keys[i-1] > 1 {
			cand = append(cand, t.keys[i-1]+1)
		}
	}
	for _, k := range cand {
		// A key past T's width, or the other zero, may name a present value.
		if v := sorter.FromOrderedKey[T](k); t.Count(v) == 0 {
			return v
		}
	}
	panic("oracle: the stream holds every value of its type")
}

// Target is the rank a phi-quantile answers for: ⌈phi·N⌉ clamped to [1, N].
func Target(phi float64, n int64) int64 {
	return min(max(int64(math.Ceil(phi*float64(n))), 1), n)
}

// Every returns every rank 1..N.
func Every(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) + 1
	}
	return out
}

// Phis returns steps+1 quantiles spread evenly over [0, 1].
func Phis(steps int) []float64 {
	out := make([]float64, steps+1)
	for p := range out {
		out[p] = float64(p) / float64(steps)
	}
	return out
}

// WorstRank is the largest distance between a rank r of ranks and the
// answer query(r) gives for it.
func (t *Truth[T]) WorstRank(query func(r int64) T, ranks []int64) int64 {
	var worst int64
	for _, r := range ranks {
		worst = max(worst, t.Distance(query(r), r))
	}
	return worst
}

// GridError is the largest distance between a rank r = 1 + p(N-1)/100,
// p = 0..100, and the answer query(r), as a share of N: a summary's rank
// error at 101 ranks spread across the stream. It is 0 on an empty stream.
func (t *Truth[T]) GridError(query func(r int64) T) float64 {
	n := t.N()
	if n == 0 {
		return 0
	}
	ranks := make([]int64, 101)
	for p := range ranks {
		ranks[p] = 1 + int64(p)*(n-1)/100
	}
	return float64(t.WorstRank(query, ranks)) / float64(n)
}

// QuantileError is the largest rank distance of view's phi-quantiles from
// their targets. It fails only when a phi goes unanswered.
func QuantileError[T sorter.Value](t *Truth[T], view pipeline.View[T], phis []float64) (int64, error) {
	var worst int64
	for _, phi := range phis {
		v, ok := view.Quantile(phi)
		if !ok {
			return worst, fmt.Errorf("quantile(%g): no answer over %d values", phi, t.N())
		}
		worst = max(worst, t.Distance(v, Target(phi, t.N())))
	}
	return worst, nil
}

// Quantiles holds view's phi-quantiles to eps·N + 1 ranks of their targets
// and returns the largest distance.
func Quantiles[T sorter.Value](t *Truth[T], view pipeline.View[T], phis []float64, eps float64) (int64, error) {
	worst, err := QuantileError(t, view, phis)
	if err == nil && float64(worst) > eps*float64(t.N())+1 {
		err = fmt.Errorf("quantile rank error %d exceeds eps·N + 1 = %.1f (N = %d)", worst, eps*float64(t.N())+1, t.N())
	}
	return worst, err
}

// Frequencies holds view's complete estimate list, read once through
// HeavyHitters(0), to the truth: every distinct value's estimate — its
// listed count, or 0 when it is not listed — is at most its true count and
// short of it by at most eps·N, and nothing absent from the stream is
// listed. twoSided relaxes the first rule to an overcount of at most eps·N,
// the sliding windows' bound. It returns the largest error.
func Frequencies[T sorter.Value](t *Truth[T], view pipeline.View[T], eps float64, twoSided bool) (int64, error) {
	items, ok := view.HeavyHitters(0)
	if !ok {
		return 0, fmt.Errorf("heavyhitters(0): the view answers no frequency queries")
	}
	est := make(map[uint64]int64, len(items))
	for _, it := range items {
		est[key(it.Value)] = it.Freq
	}
	bound := eps * float64(t.N())
	var worst int64
	check := func(v T, got, c int64) error {
		if got > c && !twoSided {
			return fmt.Errorf("frequency(%v) = %d over-counts the true %d", v, got, c)
		}
		d := max(c-got, got-c)
		worst = max(worst, d)
		if float64(d) > bound+1e-9 {
			return fmt.Errorf("frequency(%v) = %d is %d from the true %d, over eps·N = %.1f", v, got, d, c, bound)
		}
		return nil
	}
	for i, k := range t.keys {
		c := t.ends[i]
		if i > 0 {
			c -= t.ends[i-1]
		}
		got := est[k]
		delete(est, k)
		if err := check(t.Value(i), got, c); err != nil {
			return worst, err
		}
	}
	for k, got := range est {
		if err := check(sorter.FromOrderedKey[T](k), got, 0); err != nil {
			return worst, err
		}
	}
	return worst, nil
}

// Support requires items, an answer at the given support, to list every
// value occurring at least support·N times.
func Support[T sorter.Value](t *Truth[T], items []pipeline.Item[T], support float64) error {
	listed := make(map[uint64]bool, len(items))
	for _, it := range items {
		listed[key(it.Value)] = true
	}
	need := int64(math.Ceil(support * float64(t.N())))
	for i, k := range t.keys {
		c := t.ends[i]
		if i > 0 {
			c -= t.ends[i-1]
		}
		if c >= need && !listed[k] {
			return fmt.Errorf("heavyhitters(%g): %v with true count %d is missing", support, t.Value(i), c)
		}
	}
	return nil
}

// Probes requires view's point query Frequency(v), for each probe v, to
// equal v's count in items, the view's complete estimate list (0 when v is
// not listed).
func Probes[T sorter.Value](view pipeline.View[T], items []pipeline.Item[T], probes []T) error {
	listed := make(map[uint64]int64, len(items))
	for _, it := range items {
		listed[key(it.Value)] = it.Freq
	}
	for _, v := range probes {
		got, ok := view.Frequency(v)
		if !ok {
			return fmt.Errorf("frequency(%v): the view answers no point queries", v)
		}
		if want := listed[key(v)]; got != want {
			return fmt.Errorf("frequency(%v) = %d, but the view lists %d", v, got, want)
		}
	}
	return nil
}
