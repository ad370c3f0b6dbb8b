package gpustream

import (
	"sort"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

// TestParallelQuantileAPI drives the public sharded-quantile API on every
// backend and checks merged answers against a full sort.
func TestParallelQuantileAPI(t *testing.T) {
	t.Parallel()
	data := stream.Uniform(40_000, 41)
	sorted := append([]float32(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	const eps = 0.02
	for _, backend := range []Backend{BackendCPU, BackendGPU} {
		eng := New(backend)
		est := eng.NewParallelQuantileEstimator(eps, 4, WithBatchSize(2048))
		est.ProcessSlice(data)
		est.Close()
		if est.Shards() != 4 {
			t.Fatalf("%v: Shards=%d want 4", backend, est.Shards())
		}
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			v := est.Query(phi)
			r := int(phi * float64(len(sorted)))
			lo := sorted[max(0, r-int(2*eps*float64(len(sorted))))]
			hi := sorted[min(len(sorted)-1, r+int(2*eps*float64(len(sorted))))]
			if v < lo || v > hi {
				t.Errorf("%v phi=%g: %v outside [%v, %v]", backend, phi, v, lo, hi)
			}
		}
		bd := est.ModeledTime(eng.Model(), backend.PipelineBackend())
		if bd.Total() <= 0 {
			t.Errorf("%v: modeled sharded time not positive", backend)
		}
	}
}

// TestParallelFrequencyAPI drives the public sharded-frequency API and
// checks the no-false-negative guarantee end to end.
func TestParallelFrequencyAPI(t *testing.T) {
	t.Parallel()
	data := stream.Zipf(40_000, 1.2, 500, 42)
	truth := oracle.New(data)
	const eps, support = 0.005, 0.02
	eng := New(BackendCPU)
	est := eng.NewParallelFrequencyEstimator(eps, 4, WithBatchSize(2048))
	est.ProcessSlice(data)
	est.Close()
	if err := oracle.Support(truth, est.Query(support), support); err != nil {
		t.Error(err)
	}
	if top := est.TopK(5); len(top) == 0 || truth.Count(top[0].Value) < truth.Count(top[len(top)-1].Value) {
		t.Errorf("TopK not ordered by frequency: %v", top)
	}
}
