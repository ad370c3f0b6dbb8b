package gpustream

import (
	"sort"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

func TestAllBackendsSortIdentically(t *testing.T) {
	data := stream.Zipf(20000, 1.1, 1000, 1)
	want := append([]float32(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, b := range []Backend{BackendGPU, BackendGPUBitonic, BackendCPU, BackendCPUParallel} {
		eng := New(b)
		got := append([]float32(nil), data...)
		eng.Sort(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: mismatch at %d", b, i)
			}
		}
		if eng.Backend() != b {
			t.Fatalf("Backend() = %v, want %v", eng.Backend(), b)
		}
		if eng.Sorter() == nil {
			t.Fatalf("%v: nil sorter", b)
		}
	}
}

func TestBackendStrings(t *testing.T) {
	cases := map[Backend]string{
		BackendGPU:         "gpu",
		BackendGPUBitonic:  "gpu-bitonic",
		BackendCPU:         "cpu",
		BackendCPUParallel: "cpu-parallel",
	}
	for b, want := range cases {
		if b.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(b), b.String(), want)
		}
	}
	if Backend(99).String() == "" {
		t.Fatal("unknown backend should still stringify")
	}
}

func TestNewPanicsOnUnknownBackend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Backend(42))
}

func TestLastSortBreakdown(t *testing.T) {
	eng := New(BackendGPU)
	eng.Sort(stream.Uniform(10000, 2))
	b, ok := eng.LastSortBreakdown()
	if !ok {
		t.Fatal("GPU backend must expose a breakdown")
	}
	if b.Compute <= 0 || b.Transfer <= 0 || b.Setup <= 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Total() != b.Compute+b.Transfer+b.Setup+b.Merge {
		t.Fatal("Total mismatch")
	}

	cpu := New(BackendCPU)
	cpu.Sort(stream.Uniform(100, 3))
	if _, ok := cpu.LastSortBreakdown(); ok {
		t.Fatal("CPU backend should not expose a GPU breakdown")
	}

	bit := New(BackendGPUBitonic)
	bit.Sort(stream.Uniform(4096, 4))
	bb, ok := bit.LastSortBreakdown()
	if !ok || bb.Compute <= 0 {
		t.Fatalf("bitonic breakdown = %+v ok=%v", bb, ok)
	}
}

func TestEndToEndFrequency(t *testing.T) {
	const eps, support = 0.005, 0.03
	data := stream.Zipf(50000, 1.3, 2000, 5)
	truth := oracle.New(data)
	for _, b := range []Backend{BackendGPU, BackendCPU} {
		est := New(b).NewFrequencyEstimator(eps)
		est.ProcessSlice(data)
		if err := oracle.Support(truth, est.Query(support), support); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
	}
}

func TestEndToEndQuantile(t *testing.T) {
	const eps = 0.01
	data := stream.Gaussian(40000, 50, 10, 6)
	truth := oracle.New(data)
	for _, b := range []Backend{BackendGPU, BackendCPU} {
		est := New(b).NewQuantileEstimator(eps)
		est.ProcessSlice(data)
		if _, err := oracle.Quantiles(truth, est.Snapshot(), []float64{0.1, 0.5, 0.9}, eps); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
	}
}

func TestEndToEndSlidingWindows(t *testing.T) {
	const eps = 0.02
	const W = 5000
	data := stream.Zipf(20000, 1.2, 300, 7)
	window := oracle.Suffix(data, W)
	eng := New(BackendGPU)
	sf := eng.NewSlidingFrequency(eps, W)
	sq := eng.NewSlidingQuantile(eps, W)
	sf.ProcessSlice(data)
	sq.ProcessSlice(data)

	if _, err := oracle.Frequencies(window, sf.Snapshot(), eps, true); err != nil {
		t.Fatalf("sliding frequency: %v", err)
	}
	if _, err := oracle.Quantiles(window, sq.Snapshot(), []float64{0.5}, eps); err != nil {
		t.Fatalf("sliding median: %v", err)
	}
}

func TestEngineStatsRegistry(t *testing.T) {
	eng := New(BackendCPU)
	fe := eng.NewFrequencyEstimator(0.01)
	qe := eng.NewQuantileEstimator(0.01)
	data := stream.Uniform(5000, 21)
	fe.ProcessSlice(data)
	qe.ProcessSlice(data)
	fe.Flush()
	qe.Flush()

	all := eng.Stats()
	if len(all) != 2 {
		t.Fatalf("Stats() len = %d, want 2", len(all))
	}
	if all[0].Kind != "frequency" || all[1].Kind != "quantile" {
		t.Fatalf("kinds = %q, %q", all[0].Kind, all[1].Kind)
	}
	for _, es := range all {
		if es.Stats.SortedValues != 5000 || es.Stats.Windows == 0 || es.Stats.Sort <= 0 {
			t.Fatalf("%s stats = %+v", es.Kind, es.Stats)
		}
	}
}

func TestEngineEstimatorsGetOwnSorters(t *testing.T) {
	// Estimator[float32] ingestion must not disturb the engine's own sorter: the
	// GPU LastSortBreakdown reflects Engine[float32].Sort calls only, and two
	// estimators never share simulator state.
	eng := New(BackendGPU)
	if _, ok := eng.LastSortBreakdown(); ok {
		t.Fatal("breakdown before any Engine[float32].Sort call")
	}
	fe := eng.NewFrequencyEstimator(0.01)
	fe.ProcessSlice(stream.Uniform(2000, 22))
	fe.Flush()
	if _, ok := eng.LastSortBreakdown(); ok {
		t.Fatal("estimator ingestion leaked into the engine sorter")
	}
	eng.Sort(stream.Uniform(4096, 23))
	if _, ok := eng.LastSortBreakdown(); !ok {
		t.Fatal("no breakdown after Engine[float32].Sort")
	}
}
