package cpusort

import (
	"fmt"
	"testing"

	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// rotation is how many distinct inputs of n values a benchmark cycles
// through: at least 16, and enough that the cycle holds 256K values.
// Re-sorting one array (or a few dozen short ones) lets the branch predictor
// memorise quicksort's path: at n = 1000 one repeated input reads 12
// ns/value where the traced pipeline pays 45.
func rotation(n int) int { return max(16, (1<<18)/n) }

// benchRotating times fn over rotation(n) inputs of n values each (the copy
// into the work buffer is inside the timed region for every contender) and
// reports ns/value.
func benchRotating[T sorter.Value](b *testing.B, n int, gen func(n int, seed uint64) []T, fn func([]T)) {
	inputs := make([][]T, rotation(n))
	for i := range inputs {
		inputs[i] = gen(n, uint64(n+i))
	}
	buf := make([]T, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, inputs[i%len(inputs)])
		fn(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
}

func zipfOf[T sorter.Value](n int, seed uint64) []T { return stream.ZipfOf[T](n, 1.1, n/100+10, seed) }

// benchWindowSorts is the table DESIGN.md §18 cites: quicksort against the
// radix kernel (called below RadixMinN too, to show the crossover) over the
// window sizes the pipelines reach.
func benchWindowSorts[T sorter.Value](b *testing.B, typ string, zipf, uniform func(int, uint64) []T) {
	for _, n := range []int{32, 64, 96, 128, 192, 256, 1000, 4000, 65536} {
		for dist, gen := range map[string]func(int, uint64) []T{"zipf": zipf, "uniform": uniform} {
			var r Radix[T]
			r.Sort(nil) // resolves the kind, which radix needs
			b.Run(fmt.Sprintf("%s/%s/n=%d/quicksort", typ, dist, n), func(b *testing.B) {
				benchRotating(b, n, gen, Quicksort[T])
			})
			b.Run(fmt.Sprintf("%s/%s/n=%d/radix", typ, dist, n), func(b *testing.B) {
				benchRotating(b, n, gen, func(d []T) { r.radix(d) })
			})
		}
	}
}

func BenchmarkWindowSort(b *testing.B) {
	benchWindowSorts(b, "float32", zipfOf[float32], stream.UniformOf[float32])
	benchWindowSorts(b, "uint64", zipfOf[uint64], stream.UniformU64) // all 64 bits vary: no digit is skipped
}

func benchSort(b *testing.B, fn func([]float32)) {
	for _, n := range []int{1 << 12, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRotating(b, n, stream.UniformOf[float32], fn)
		})
	}
}

func BenchmarkQuicksort(b *testing.B) { benchSort(b, Quicksort) }
func BenchmarkParallelQuicksort(b *testing.B) {
	benchSort(b, func(d []float32) { ParallelQuicksort(d, 2) })
}
func BenchmarkHeapsort(b *testing.B) { benchSort(b, Heapsort) }
func BenchmarkRadixSort(b *testing.B) {
	benchSort(b, func(d []float32) { new(Radix[float32]).Sort(d) })
}
