package summary

import (
	"math"
	"testing"

	"gpustream/internal/stream"
)

// queryIndexLinear is queryIndex by a scan over every entry: the first one
// minimizing max(r - RMin, RMax - r). It is the reference the bisection is
// tested against, and needs no order of the rank bounds.
func (s *Summary[T]) queryIndexLinear(r int64) int {
	best, bestScore := 0, int64(math.MaxInt64)
	for i, e := range s.Entries {
		if score := e.score(r); score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

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

// pointMass is the keyed tier's prefix summary: one value standing for n
// elements, at any rank in 1..n.
func pointMass(v float32, n int64, eps float64) *Summary[float32] {
	return &Summary[float32]{Entries: []Entry[float32]{{V: v, RMin: 1, RMax: n}}, N: n, Eps: eps}
}

// gkOf inserts data into a GK summary at eps, compressing every `every`
// inserts (0: GK's own schedule).
func gkOf(data []float32, eps float64, every int64) *GK[float32] {
	g := NewGK[float32](eps)
	if every > 0 {
		g = NewGKCompressEvery[float32](eps, every)
	}
	for _, v := range data {
		g.Insert(v)
	}
	return g
}

// TestQueryIndexBisectionMatchesScan pins the bisecting queryIndex to the
// linear scan — same index, first-minimum tie-break included — on every
// rank of small summaries and 10^4 random ranks of large ones: sampled
// windows, merges, cascades, GK summaries, the keyed tier's GK suffix
// merged with a point mass, and point masses merged with windows and with
// each other.
func TestQueryIndexBisectionMatchesScan(t *testing.T) {
	allEqual := make([]float32, 5000)
	for i := range allEqual {
		allEqual[i] = 7
	}
	inputs := map[string][]float32{
		"random":       stream.Uniform(5000, 1),
		"all-equal":    allEqual,
		"zipf":         stream.Zipf(5000, 1.1, 60, 2),
		"sorted":       stream.Sorted(5000),
		"late-inserts": lateInserts(5000, 3),
	}
	check := func(t *testing.T, s *Summary[float32], ranks func(yield func(int64))) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
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
			gk := gkOf(data, 0.01, 0)
			window := FromSortedWindow(sortedCopy(data[:700]), 0.02)
			for _, s := range []*Summary[float32]{
				FromSortedWindow(sortedCopy(data[:1]), 0.1),
				FromSortedWindow(sortedCopy(data[:300]), 0.001), // every rank kept
				FromSortedWindow(sortedCopy(data), 0.01),
				Merge(window, FromSortedWindow(sortedCopy(data[700:1500]), 0.05)),
				cascadeOf(data, 100, 0.05, 40), // merged then pruned, many times over
				cascadeOf(data, 64, 0.001, 25),
				gk.ToSummary(),
				gkOf(data, 0.05, 1000).ToSummary(),                   // lazily compressed
				Merge(gk.ToSummary(), pointMass(data[0], 800, 0.01)), // keyed effective()
				Merge(gkOf(data[2500:], 0.02, 0).ToSummary(), pointMass(data[2600], 2500, 0.02)),
				Merge(pointMass(data[9], 300, 0.01), window),
				Merge(window, pointMass(data[9], 300, 0.01)),
				Merge(pointMass(3, 40, 0), pointMass(3, 25, 0)),
				Merge(Merge(gk.ToSummary(), pointMass(data[0], 800, 0.01)), window).Prune(30),
			} {
				check(t, s, everyRank(s.N))
			}
		})
	}
	t.Run("gk-late-inserts-dip", func(t *testing.T) {
		// The ordering is what makes the bisection valid here: GK's own RMax
		// dips on this stream.
		g := gkOf(lateInserts(5000, 3), 0.01, 0)
		if !rawDips(rawBounds(g)) {
			t.Fatal("GK's raw RMax never dips on late interior inserts")
		}
		check(t, g.ToSummary(), everyRank(g.Count()))
	})
	t.Run("large", func(t *testing.T) {
		rng := stream.NewRNG(3)
		for _, data := range [][]float32{
			stream.Uniform(100000, 4),
			stream.Zipf(100000, 1.1, 1010, 5),
		} {
			for _, s := range []*Summary[float32]{
				cascadeOf(data, 4000, 0.001, 10000),
				cascadeOf(data, 1000, 0.001, 1<<30), // never pruned: 100K entries
				Merge(gkOf(data, 0.001, 0).ToSummary(), pointMass(data[0], 20000, 0.001)),
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
