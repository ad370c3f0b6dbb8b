package gpustream

// Allocation benchmarks for the hot ingestion path. The windowed-ingestion
// core reuses window buffers and sort/merge scratch across windows, so at
// steady state ProcessSlice should allocate only what the retained summaries
// themselves grow by — allocs/op here is the regression gate for that.
// CHANGES.md records the before/after numbers.

import (
	"fmt"
	"testing"

	"gpustream/internal/stream"
)

const allocBenchN = 1 << 20 // ~1M values, eps=1e-3 -> 1000-value windows

func allocStream() []float32 {
	return stream.Zipf(allocBenchN, 1.1, allocBenchN/100+10, 31)
}

// BenchmarkSerialIngestAllocs measures steady-state allocations of serial
// frequency and quantile ingestion at eps=1e-3 over 1M zipf values. The
// estimator is constructed once outside the timed loop: each iteration
// re-ingests the stream through the already-warm summary, so one-time
// buffer growth is excluded and allocs/op reflects per-window costs only.
func BenchmarkSerialIngestAllocs(b *testing.B) {
	const eps = 1e-3
	data := allocStream()
	b.Run("frequency", func(b *testing.B) {
		eng := New(BackendCPU)
		est := eng.NewFrequencyEstimator(eps)
		est.ProcessSlice(data) // warm the summary and scratch
		b.ReportAllocs()
		b.SetBytes(allocBenchN * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.ProcessSlice(data)
		}
	})
	b.Run("quantile", func(b *testing.B) {
		eng := New(BackendCPU)
		est := eng.NewQuantileEstimator(eps)
		est.ProcessSlice(data)
		b.ReportAllocs()
		b.SetBytes(allocBenchN * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.ProcessSlice(data)
		}
	})
	b.Run("sliding-frequency", func(b *testing.B) {
		eng := New(BackendCPU)
		est := eng.NewSlidingFrequency(eps, 100_000)
		est.ProcessSlice(data)
		b.ReportAllocs()
		b.SetBytes(allocBenchN * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.ProcessSlice(data)
		}
	})
	b.Run("sliding-quantile", func(b *testing.B) {
		eng := New(BackendCPU)
		est := eng.NewSlidingQuantile(eps, 100_000)
		est.ProcessSlice(data)
		b.ReportAllocs()
		b.SetBytes(allocBenchN * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.ProcessSlice(data)
		}
	})
}

// BenchmarkShardedIngestAllocs is the sharded counterpart: K workers each
// run the serial pipeline, so per-window allocations multiply with K unless
// the shared core pools them.
func BenchmarkShardedIngestAllocs(b *testing.B) {
	const eps = 1e-3
	data := allocStream()
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("frequency/k=%d", k), func(b *testing.B) {
			eng := New(BackendCPU)
			est := eng.NewParallelFrequencyEstimator(eps, k)
			est.ProcessSlice(data)
			est.Flush()
			b.ReportAllocs()
			b.SetBytes(allocBenchN * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.ProcessSlice(data)
				est.Flush()
			}
			b.StopTimer()
			est.Close()
		})
		b.Run(fmt.Sprintf("quantile/k=%d", k), func(b *testing.B) {
			eng := New(BackendCPU)
			est := eng.NewParallelQuantileEstimator(eps, k)
			est.ProcessSlice(data)
			est.Flush()
			b.ReportAllocs()
			b.SetBytes(allocBenchN * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.ProcessSlice(data)
				est.Flush()
			}
			b.StopTimer()
			est.Close()
		})
	}
}
