package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// each applies f to every element: the per-pass (or per-round) values a
// median is then taken over.
func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest element with at least p% of the sample at
// or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is ceil(p/100 * n) clamped to [1, n]. The small slack keeps a
// product that is a whole number in exact arithmetic (99.9% of 10000) from
// rounding up to the next rank in floating point.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(rank, n))
}

// median is the usual midpoint median (mean of the two central elements of
// an even sample) of an unsorted sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the candidate tail percentiles, lowest first.
var tailLevels = []float64{90, 95, 99, 99.9, 99.99}

// tailPercentile reports the highest candidate percentile that still has at
// least ten samples beyond it — the deepest tail the sample supports — as a
// label ("p99") and value. ok is false when even p90 has fewer than ten
// samples beyond it (n < 100).
func tailPercentile(sorted []float64) (label string, value float64, ok bool) {
	n := len(sorted)
	for _, p := range tailLevels {
		rank := nearestRank(p, n)
		if n-rank < 10 {
			break
		}
		label, value, ok = fmt.Sprintf("p%g", p), sorted[rank-1], true
	}
	return label, value, ok
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive" method),
// so -selfcheck computes spreads exactly as the driver does. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness measure the driver applies to every end-to-end metric.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// timing summarises one latency sample for the human-readable report: the
// median, the deepest supported tail percentile, and the sample count.
func timing(samples []float64) string {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.4g", percentile(s, 50))
	if label, v, ok := tailPercentile(s); ok {
		out += fmt.Sprintf("  %s %.4g", label, v)
	}
	return out + fmt.Sprintf("  (n=%d)", len(s))
}

// series prints a run's per-pass values in order, so drift of the host during
// the run is visible next to the median taken over them.
func series(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3g", x)
	}
	return b.String()
}
