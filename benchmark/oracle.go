package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// truth is exact ground truth about one stream: the benchmark's oracle,
// computed without any of the program's code, against which every answer is
// checked. The library workloads hold a sorted copy of the stream; the
// service workloads, whose values are small integers, hold a count array per
// stream.
type truth interface {
	// total is the stream length N.
	total() int64
	// rankRange returns the 1-based ranks value v occupies in the sorted
	// stream: lo = #(x < v) + 1, hi = #(x <= v). A value the stream does
	// not contain gives hi = lo - 1.
	rankRange(v float32) (lo, hi int64)
	// atLeast lists every distinct value occurring at least min times.
	atLeast(min int64) []float32
}

// count is the exact number of occurrences of v.
func count(t truth, v float32) int64 {
	lo, hi := t.rankRange(v)
	return hi - lo + 1
}

// sortedTruth is ground truth as an ascending copy plus run-length counts.
type sortedTruth struct {
	sorted []float32
	values []float32 // distinct values, ascending
	counts []int64   // counts[i] occurrences of values[i]
}

func newSortedTruth(data []float32) *sortedTruth {
	t := &sortedTruth{sorted: slices.Clone(data)}
	slices.Sort(t.sorted)
	for i, v := range t.sorted {
		if i == 0 || v != t.sorted[i-1] {
			t.values = append(t.values, v)
			t.counts = append(t.counts, 0)
		}
		t.counts[len(t.counts)-1]++
	}
	return t
}

func (t *sortedTruth) total() int64 { return int64(len(t.sorted)) }

func (t *sortedTruth) rankRange(v float32) (lo, hi int64) {
	l, _ := slices.BinarySearch(t.sorted, v)
	h := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i] > v })
	return int64(l) + 1, int64(h)
}

func (t *sortedTruth) atLeast(min int64) []float32 {
	var out []float32
	for i, c := range t.counts {
		if c >= min {
			out = append(out, t.values[i])
		}
	}
	return out
}

// countTruth is ground truth for a stream of integer-valued samples in
// [0, len(counts)): counts[k] occurrences of float32(k).
type countTruth struct {
	counts []int32
	cum    []int64 // cum[k] = #(x <= k), built by seal
}

func (t *countTruth) add(v float32) { t.counts[int(v)]++ }

// seal builds the cumulative counts; call it once, after the last add.
func (t *countTruth) seal() {
	t.cum = make([]int64, len(t.counts))
	var run int64
	for k, c := range t.counts {
		run += int64(c)
		t.cum[k] = run
	}
}

func (t *countTruth) total() int64 { return t.cum[len(t.cum)-1] }

// below is #(x <= k) for any integer k, including out-of-range ones.
func (t *countTruth) below(k int) int64 {
	switch {
	case k < 0:
		return 0
	case k >= len(t.cum):
		return t.total()
	}
	return t.cum[k]
}

func (t *countTruth) rankRange(v float32) (lo, hi int64) {
	f := math.Floor(float64(v))
	k := int(f)
	if float64(v) == f {
		return t.below(k-1) + 1, t.below(k)
	}
	return t.below(k) + 1, t.below(k)
}

func (t *countTruth) atLeast(min int64) []float32 {
	var out []float32
	for k, c := range t.counts {
		if int64(c) >= min {
			out = append(out, float32(k))
		}
	}
	return out
}

// verdict accumulates the outcome of checked operations. Every check counts
// as one attempted operation; a violated guarantee is a failed one. used is
// the worst observed error as a share of the eps*N the guarantee allows.
type verdict struct {
	attempted, failed int
	used              float64
	problems          []string
}

func (v *verdict) op() { v.attempted++ }

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.used = math.Max(v.used, o.used)
	for _, p := range o.problems {
		if len(v.problems) < 20 {
			v.problems = append(v.problems, p)
		}
	}
}

// observe records an error of d ranks (or counts) against a budget of
// eps*n, failing the operation when the budget is exceeded.
func (v *verdict) observe(what string, d int64, eps float64, n int64) {
	share := float64(d) / (eps * float64(n))
	v.used = math.Max(v.used, share)
	if share > 1 {
		v.fail("%s: error %d exceeds eps*N = %.1f", what, d, eps*float64(n))
	}
}

// checkQuantile checks one phi-quantile answer: its true rank range must
// come within eps*N of the target rank ceil(phi*N).
func checkQuantile(v *verdict, t truth, eps, phi float64, got float32, ok bool) {
	v.op()
	n := t.total()
	if !ok {
		v.fail("quantile(%g): no answer on a stream of %d values", phi, n)
		return
	}
	r := min(max(int64(math.Ceil(phi*float64(n))), 1), n)
	lo, hi := t.rankRange(got)
	var d int64
	switch {
	case r < lo:
		d = lo - r
	case r > hi:
		d = r - hi
	}
	v.observe(fmt.Sprintf("quantile(%g)=%v", phi, got), d, eps, n)
}

// hitter is one reported heavy hitter.
type hitter struct {
	Value float32
	Freq  int64
}

// checkHeavyHitters checks a heavy-hitter answer at the given support: no
// value with true frequency >= support*N may be missing (false negative), no
// estimate may exceed the true count (over-count), and no estimate may
// undercount by more than eps*N.
func checkHeavyHitters(v *verdict, t truth, eps, support float64, items []hitter) {
	v.op()
	n := t.total()
	reported := make(map[float32]bool, len(items))
	for _, it := range items {
		reported[it.Value] = true
		checkFrequency(v, t, eps, it.Value, it.Freq)
	}
	for _, hv := range t.atLeast(int64(math.Ceil(support * float64(n)))) {
		if !reported[hv] {
			v.fail("heavyhitters(%g): value %v with true count %d is missing", support, hv, count(t, hv))
		}
	}
}

// checkFrequency checks one point-frequency estimate against the exact count.
func checkFrequency(v *verdict, t truth, eps float64, value float32, est int64) {
	v.op()
	c := count(t, value)
	if est > c {
		v.fail("frequency(%v): estimate %d over-counts the true %d", value, est, c)
		return
	}
	v.observe(fmt.Sprintf("frequency(%v)", value), c-est, eps, t.total())
}
