package gpustream

import (
	"reflect"
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
		est := eng.NewParallelQuantileEstimator(eps, int64(len(data)), 4, WithBatchSize(2048))
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

// TestParallelSingleShardMatchesSerialAPI pins the K=1 contract at the
// public API level: identical output to the serial estimators.
func TestParallelSingleShardMatchesSerialAPI(t *testing.T) {
	t.Parallel()
	data := stream.UniformInts(30_000, 1<<10, 43)
	const eps = 0.01
	eng := New(BackendCPU)

	sq := eng.NewQuantileEstimator(eps, int64(len(data)))
	sq.ProcessSlice(data)
	pq := eng.NewParallelQuantileEstimator(eps, int64(len(data)), 1)
	pq.ProcessSlice(data)
	pq.Close()
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := pq.Query(phi), sq.Query(phi); got != want {
			t.Errorf("quantile phi=%g: sharded %v != serial %v", phi, got, want)
		}
	}

	sf := eng.NewFrequencyEstimator(eps)
	sf.ProcessSlice(data)
	pf := eng.NewParallelFrequencyEstimator(eps, 1)
	pf.ProcessSlice(data)
	pf.Close()
	got, want := pf.Query(0.01), sf.Query(0.01)
	if len(got) != len(want) {
		t.Fatalf("item count: sharded %d != serial %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("item %d: sharded %v != serial %v", i, got[i], want[i])
		}
	}
}

// k1BitIdenticalCase pins the acceptance criterion that a K=1 sharded
// estimator is bit-identical to its serial sibling at type T on the given
// backend: same quantile answers at every probe, same frequency estimates
// and heavy-hitter lists.
func k1BitIdenticalCase[T Value](t *testing.T, backend Backend, data []T) {
	n := int64(len(data))
	const eps = 0.005
	eng := NewOf[T](backend)

	sq := eng.NewQuantileEstimator(eps, n)
	sq.ProcessSlice(data)
	pq := eng.NewParallelQuantileEstimator(eps, n, 1, WithBatchSize(1024))
	pq.ProcessSlice(data)
	pq.Close()
	for p := 0; p <= 20; p++ {
		phi := float64(p) / 20
		if s, par := sq.Query(phi), pq.Query(phi); s != par {
			t.Fatalf("phi=%v: serial %v != K=1 sharded %v", phi, s, par)
		}
	}

	sf := eng.NewFrequencyEstimator(eps)
	sf.ProcessSlice(data)
	pf := eng.NewParallelFrequencyEstimator(eps, 1, WithBatchSize(1024))
	pf.ProcessSlice(data)
	pf.Close()
	if s, par := sf.Query(4*eps), pf.Query(4*eps); !reflect.DeepEqual(s, par) {
		t.Fatalf("heavy hitters diverge:\n  serial:  %v\n  sharded: %v", s, par)
	}
	for _, v := range data[:200] {
		if s, par := sf.Estimate(v), pf.Estimate(v); s != par {
			t.Fatalf("Estimate(%v): serial %d != K=1 sharded %d", v, s, par)
		}
	}
}

func TestShardK1BitIdenticalAcrossTypes(t *testing.T) {
	const n = 30000
	t.Run("float32", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendCPU, stream.Zipf(n, 1.2, 300, 31))
	})
	t.Run("float32-samplesort", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendSampleSort, stream.Zipf(n, 1.2, 300, 31))
	})
	t.Run("float64", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendCPU, stream.ZipfOf[float64](n, 1.2, 300, 32))
	})
	t.Run("uint32", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendCPU, stream.ZipfOf[uint32](n, 1.2, 300, 33))
	})
	t.Run("uint64", func(t *testing.T) {
		data := stream.ZipfOf[uint64](n, 1.2, 300, 34)
		for i, v := range data {
			data[i] = v << 40 // exercise the high bits
		}
		k1BitIdenticalCase(t, BackendSampleSort, data)
	})
	t.Run("int64", func(t *testing.T) {
		data := stream.ZipfOf[int64](n, 1.2, 300, 35)
		for i, v := range data {
			if i%2 == 1 {
				data[i] = -v // signed streams cross zero
			}
		}
		k1BitIdenticalCase(t, BackendCPU, data)
	})
}
