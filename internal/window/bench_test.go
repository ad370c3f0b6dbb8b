package window

import (
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

var benchData = stream.Zipf(1<<16, 1.1, 1<<12, 1)

func BenchmarkSlidingFrequency(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		f := NewSlidingFrequency(0.01, 1<<14, cpusort.QuicksortSorter[float32]{})
		f.ProcessSlice(benchData)
		_ = f.Query(0.05)
	}
}

func BenchmarkSlidingQuantile(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		q := NewSlidingQuantile(0.01, 1<<14, cpusort.QuicksortSorter[float32]{})
		q.ProcessSlice(benchData)
		_ = q.Query(0.5)
	}
}
