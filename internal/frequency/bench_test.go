package frequency

import (
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

var benchData = stream.Zipf(1<<16, 1.1, 1<<12, 1)

func BenchmarkLossyCounting(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		e := NewEstimator(0.001, cpusort.QuicksortSorter[float32]{})
		e.ProcessSlice(benchData)
		e.Flush()
	}
}
