package summary

import (
	"testing"

	"gpustream/internal/stream"
)

func BenchmarkFromSortedWindow(b *testing.B) {
	win := sortedCopy(stream.Uniform(1<<16, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromSortedWindow(win, 0.001)
	}
}

// BenchmarkFromSortedPair builds a quantile estimator's default level 0 at
// eps 1e-3, every eighth rank of 8000 zipf values: from two sorted runs of
// 4000 by bisection, and from their sorted concatenation.
func BenchmarkFromSortedPair(b *testing.B) {
	x := sortedCopy(stream.Zipf(4000, 1.1, 5000, 1))
	y := sortedCopy(stream.Zipf(4000, 1.1, 5000, 2))
	both := sortedCopy(append(append([]float32(nil), x...), y...))
	dst := &Compact[float32]{}
	b.Run("pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SamplePairInto(dst, x, y, 0.001)
		}
	})
	b.Run("concatenation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SamplePairInto(dst, both, nil, 0.001)
		}
	})
}

func BenchmarkMerge(b *testing.B) {
	s1 := FromSortedWindow(sortedCopy(stream.Uniform(1<<16, 2)), 0.001)
	s2 := FromSortedWindow(sortedCopy(stream.Uniform(1<<16, 3)), 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(s1, s2)
	}
}

// cascadeInputs returns pairs of the buckets the quantile cascade combines
// at eps 1e-3 over a zipf stream, with the budget their combine prunes to
// (the cascade's rule for what the inputs have spent): two never-pruned
// 8-window buckets (the first prune, budget 10,667), or two buckets pruned
// once each (budget 12,191). Eight pairs rotate so that a combine does not
// find its inputs in the cache the previous one warmed.
func cascadeInputs(pruned bool) (pairs [][2]*Summary[float32], budget int) {
	const eps, w, n = 0.001, 4000, 1 << 22
	data := stream.Zipf(n, 1.1, n/100+10, 1)
	off := 0
	bucket := func(windows int) *Summary[float32] {
		var acc *Summary[float32]
		for range windows {
			s := FromSortedWindow(sortedCopy(data[off:off+w]), eps)
			off += w
			if acc == nil {
				acc = s
			} else {
				acc = Merge(acc, s)
			}
		}
		return acc
	}
	for range 8 {
		a, b := bucket(8), bucket(8)
		if pruned {
			a = Merge(a, bucket(8)).Prune(10667)
			b = Merge(b, bucket(8)).Prune(10667)
		}
		pairs = append(pairs, [2]*Summary[float32]{a, b})
	}
	if pruned {
		return pairs, 12191
	}
	return pairs, 10667
}

// BenchmarkMergePrune compares the fused kernel with MergeInto into a warm
// scratch followed by Prune, each writing fresh output as the cascade does;
// ns/entry is per merged input entry.
func BenchmarkMergePrune(b *testing.B) {
	for _, pruned := range []bool{false, true} {
		pairs, budget := cascadeInputs(pruned)
		entries := float64(pairs[0][0].Size() + pairs[0][1].Size())
		name := map[bool]string{false: "first", true: "deep"}[pruned]
		b.Run(name+"/fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				MergePruneInto(nil, p[0], p[1], budget)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
		})
		b.Run(name+"/two-pass", func(b *testing.B) {
			tmp := &Summary[float32]{}
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				MergeInto(tmp, p[0], p[1]).Prune(budget)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
		})
	}
}

func BenchmarkPrune(b *testing.B) {
	s := FromSortedWindow(sortedCopy(stream.Uniform(1<<18, 4)), 0.0001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Prune(1000)
	}
}

func BenchmarkGKInsert(b *testing.B) {
	data := stream.Uniform(1<<16, 5)
	b.SetBytes(4)
	b.ResetTimer()
	g := NewGK[float32](0.01)
	for i := 0; i < b.N; i++ {
		g.Insert(data[i%len(data)])
	}
}
