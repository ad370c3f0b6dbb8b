// Package histogram computes the per-window histograms at the heart of the
// paper's summary construction (Section 3.2): for each window the elements
// are ordered by sorting, equal values are collapsed into (value, frequency)
// bins, and either the full histogram (frequency estimation) or a sampled
// subset with rank bounds (quantile estimation) feeds the merge step.
package histogram

import (
	"gpustream/internal/sorter"
)

// Bin is one histogram entry: a distinct value and its occurrence count.
type Bin[T sorter.Value] struct {
	Value T
	Count int64
}

// FromSorted collapses an ascending slice into bins. It panics if data is
// not sorted, since that indicates the sorting backend is broken.
func FromSorted[T sorter.Value](data []T) []Bin[T] {
	if len(data) == 0 {
		return nil
	}
	return AppendSorted(make([]Bin[T], 0, 64), data)
}

// AppendSorted collapses an ascending slice into bins appended to dst,
// which callers on the hot ingestion path reuse (dst[:0]) so steady-state
// windows allocate nothing. Like FromSorted it panics on unsorted input.
//
// Bins are split by ==, so -0 and +0 share one bin, which carries whichever
// came first in data: -0 after the key-ordered samplesort backend (see
// sorter.Value). NaNs, which the estimators exclude, compare unequal to
// everything including themselves: each becomes its own bin of count 1, at
// whichever end of data the sort left it, and never trips the sortedness
// check.
func AppendSorted[T sorter.Value](dst []Bin[T], data []T) []Bin[T] {
	if len(data) == 0 {
		return dst
	}
	cur := Bin[T]{Value: data[0], Count: 1}
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			panic("histogram: input not sorted")
		}
		if data[i] == cur.Value {
			cur.Count++
			continue
		}
		dst = append(dst, cur)
		cur = Bin[T]{Value: data[i], Count: 1}
	}
	return append(dst, cur)
}

// Compute sorts window in place with s and returns its histogram. This is
// the paper's "histogram computation" operation; the sort inside it is where
// 70-95% of the CPU pipeline's time goes, and what the GPU accelerates.
func Compute[T sorter.Value](window []T, s sorter.Sorter[T]) []Bin[T] {
	s.Sort(window)
	return FromSorted(window)
}

// Total reports the number of stream elements the bins represent.
func Total[T sorter.Value](bins []Bin[T]) int64 {
	var n int64
	for _, b := range bins {
		n += b.Count
	}
	return n
}

// Merge combines two value-ascending bin lists into one, summing counts of
// equal values. Both inputs must be sorted by value; the result is too.
func Merge[T sorter.Value](a, b []Bin[T]) []Bin[T] {
	out := make([]Bin[T], 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Value < b[j].Value:
			out = append(out, a[i])
			i++
		case a[i].Value > b[j].Value:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Bin[T]{Value: a[i].Value, Count: a[i].Count + b[j].Count})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
