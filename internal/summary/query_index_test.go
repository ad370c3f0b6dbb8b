package summary

import (
	"testing"

	"gpustream/internal/stream"
	"gpustream/internal/wire"
)

// cascadeOf folds data through sorted windows of w values, merging pairwise
// like the quantile cascade and pruning to b entries at every combine.
func cascadeOf(data []float32, w int, eps float64, b int) *Summary[float32] {
	var acc *Summary[float32]
	for off := 0; off < len(data); off += w {
		s := FromSortedWindow(sortedCopy(data[off:min(off+w, len(data))]), eps)
		if acc == nil {
			acc = s
			continue
		}
		acc = Merge(acc, s)
		if acc.Size() > b+1 {
			acc = acc.Prune(b)
		}
	}
	return acc
}

// TestQueryIndexBisectionMatchesScan pins the bisecting queryIndex to the
// linear scan it replaced — same index, first-minimum tie-break included —
// on every rank of small summaries and 10^4 random ranks of large ones.
func TestQueryIndexBisectionMatchesScan(t *testing.T) {
	allEqual := make([]float32, 5000)
	for i := range allEqual {
		allEqual[i] = 7
	}
	inputs := map[string][]float32{
		"random":    stream.Uniform(5000, 1),
		"all-equal": allEqual,
		"zipf":      stream.Zipf(5000, 1.1, 60, 2),
		"sorted":    stream.Sorted(5000),
	}
	check := func(t *testing.T, s *Summary[float32], ranks func(yield func(int64))) {
		t.Helper()
		if !s.ranked {
			t.Fatal("summary built from sorted windows is not marked ranked")
		}
		if !ranksOrdered(s.Entries) {
			t.Fatal("rank bounds are not non-decreasing")
		}
		ranks(func(r int64) {
			if got, want := s.queryIndex(r), s.queryIndexLinear(r); got != want {
				t.Fatalf("N=%d size=%d rank %d: bisection picked entry %d, scan %d", s.N, s.Size(), r, got, want)
			}
		})
	}
	everyRank := func(n int64) func(func(int64)) {
		return func(yield func(int64)) {
			for r := int64(1); r <= n; r++ {
				yield(r)
			}
		}
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			for _, s := range []*Summary[float32]{
				FromSortedWindow(sortedCopy(data[:1]), 0.1),
				FromSortedWindow(sortedCopy(data[:300]), 0.001), // every rank kept
				FromSortedWindow(sortedCopy(data), 0.01),
				Merge(FromSortedWindow(sortedCopy(data[:700]), 0.02), FromSortedWindow(sortedCopy(data[700:1500]), 0.05)),
				cascadeOf(data, 100, 0.05, 40), // merged then pruned, many times over
				cascadeOf(data, 64, 0.001, 25),
			} {
				check(t, s, everyRank(s.N))
			}
		})
	}
	t.Run("large", func(t *testing.T) {
		rng := stream.NewRNG(3)
		for _, data := range [][]float32{
			stream.Uniform(100000, 4),
			stream.Zipf(100000, 1.1, 1010, 5),
		} {
			for _, s := range []*Summary[float32]{
				cascadeOf(data, 4000, 0.001, 10000),
				cascadeOf(data, 1000, 0.001, 1<<30), // never pruned: 100K entries
			} {
				check(t, s, func(yield func(int64)) {
					for range 10000 {
						yield(1 + int64(rng.Intn(int(s.N))))
					}
				})
			}
		}
	})
}

// TestQueryIndexScansUnorderedRanks: a summary whose RMax dips (as
// GK.ToSummary's may) is not marked ranked, on its own or after a merge or
// a wire round trip, so its queries keep the scan's answers.
func TestQueryIndexScansUnorderedRanks(t *testing.T) {
	dip := &Summary[float32]{N: 10, Eps: 0.2, Entries: []Entry[float32]{
		{V: 1, RMin: 1, RMax: 1}, {V: 2, RMin: 2, RMax: 9}, {V: 3, RMin: 3, RMax: 3}, {V: 4, RMin: 10, RMax: 10},
	}}
	merged := Merge(dip, FromSortedWindow([]float32{1.5, 2.5}, 0.5))
	if dip.ranked || merged.ranked || merged.Prune(2).ranked || ranksOrdered(dip.Entries) {
		t.Fatal("summary with a dipping RMax marked ranked")
	}
	for r := int64(1); r <= merged.N; r++ {
		if got, want := merged.queryIndex(r), merged.queryIndexLinear(r); got != want {
			t.Fatalf("rank %d: entry %d, scan %d", r, got, want)
		}
	}
	for _, s := range []*Summary[float32]{dip, FromSortedWindow([]float32{1, 2, 3}, 0.5)} {
		r := wire.NewReader(AppendBinary(nil, s))
		dec := Decode[float32](r)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		if dec.ranked != s.ranked {
			t.Fatalf("decoded ranked = %v, built %v", dec.ranked, s.ranked)
		}
	}
}
