package pipeline

import (
	"sort"

	"gpustream/internal/sorter"
)

// Item is one reported heavy hitter: a stream value and its estimated
// frequency. It is the common currency of every frequency-flavoured result
// in the module (the frequency and window packages alias it).
type Item[T sorter.Value] struct {
	Value T
	Freq  int64
}

// SortItems puts a frequency answer in the order every one is reported in:
// decreasing frequency, then increasing value.
func SortItems[T sorter.Value](items []Item[T]) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Freq != items[j].Freq {
			return items[i].Freq > items[j].Freq
		}
		return items[i].Value < items[j].Value
	})
}

// TopK is the first k items of query's answer at support 0: the k highest
// estimated frequencies (fewer if fewer are tracked), in SortItems order.
func TopK[T sorter.Value](query func(support float64) []Item[T], k int) []Item[T] {
	items := query(0)
	return items[:min(k, len(items))]
}

// View is an immutable, point-in-time queryable snapshot of an estimator.
// Every estimator family returns one from Snapshot(): the view keeps
// answering — without locks and without seeing later ingestion — after the
// live estimator moves on, is safe for concurrent use from any number of
// goroutines, and stays valid after the estimator is closed.
//
// Views are cheap: they share summary storage with the live estimator under
// a copy-on-write discipline (the estimator allocates fresh storage the
// next time it would have overwritten shared state), so taking one is O(1)
// to O(partial window), never O(stream).
//
// Not every family answers every query shape, so the query methods report
// ok=false when the underlying sketch does not support them: quantile
// estimators answer Quantile, frequency estimators answer HeavyHitters and
// Frequency. Type-assert to the concrete snapshot type
// (frequency.Snapshot, quantile.Snapshot, window.FrequencySnapshot,
// window.QuantileSnapshot) for the family-specific surface, including
// sliding-window variable-span queries.
type View[T sorter.Value] interface {
	// Count reports the number of stream values the snapshot covers.
	Count() int64
	// Size reports the retained summary entries (or histogram bins), the
	// snapshot's memory footprint in elements.
	Size() int
	// Quantile returns an eps-approximate phi-quantile, phi in [0, 1].
	// ok is false if the family does not answer quantile queries or the
	// snapshot covers an empty stream.
	Quantile(phi float64) (T, bool)
	// HeavyHitters returns all values with estimated relative frequency
	// at least support. ok is false if the family does not answer
	// frequency queries.
	HeavyHitters(support float64) ([]Item[T], bool)
	// Frequency returns the estimated absolute count of v. ok is false if
	// the family does not answer point-frequency queries.
	Frequency(v T) (int64, bool)
}
