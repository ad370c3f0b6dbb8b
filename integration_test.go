package gpustream

// Integration tests: end-to-end flows across modules — trace recording and
// replay feeding both estimator families on both backends, checked against
// exact ground truth; determinism; and whole-history vs sliding-window
// consistency.

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

func TestTraceReplayPipeline(t *testing.T) {
	// Record a synthetic "finance log", replay it through a TraceSource in
	// windows, and mine it on both backends.
	const n = 50000
	const eps = 0.005
	original := stream.Zipf(n, 1.2, 2000, 101)
	truth := oracle.New(original)
	var buf bytes.Buffer
	if err := stream.WriteTrace(&buf, original); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []Backend{BackendGPU, BackendCPU} {
		src, err := stream.NewTraceSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		eng := New(backend)
		freq := eng.NewFrequencyEstimator(eps)
		quant := eng.NewQuantileEstimator(eps)

		for {
			win := stream.Collect[float32](src, 4096)
			if len(win) == 0 {
				break
			}
			freq.ProcessSlice(win)
			quant.ProcessSlice(win)
		}
		if src.Err() != nil {
			t.Fatal(src.Err())
		}

		// Frequency and quantiles vs exact.
		_, err = oracle.Frequencies(truth, freq.Snapshot(), eps, false)
		if err == nil {
			_, err = oracle.Quantiles(truth, quant.Snapshot(), []float64{0.1, 0.5, 0.9}, eps)
		}
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]Item[float32], float32) {
		eng := New(BackendGPU)
		data := stream.Bursty(20000, 500, 300, 0.005, 7)
		f := eng.NewFrequencyEstimator(0.01)
		q := eng.NewQuantileEstimator(0.01)
		f.ProcessSlice(data)
		q.ProcessSlice(data)
		return f.Query(0.05), q.Query(0.5)
	}
	f1, q1 := run()
	f2, q2 := run()
	if q1 != q2 || len(f1) != len(f2) {
		t.Fatal("pipeline not deterministic")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("frequency results not deterministic")
		}
	}
}

func TestSlidingMatchesWholeHistoryWhenWindowCoversStream(t *testing.T) {
	// A sliding window larger than the whole stream must answer like the
	// whole-history estimator, within combined error bounds.
	const n = 8000
	const eps = 0.01
	data := stream.Zipf(n, 1.3, 400, 9)
	eng := New(BackendCPU)

	whole := eng.NewFrequencyEstimator(eps)
	sliding := eng.NewSlidingFrequency(eps, 2*n)
	whole.ProcessSlice(data)
	sliding.ProcessSlice(data)

	truth := oracle.New(data)
	for i := range truth.Distinct() {
		v := truth.Value(i)
		c := truth.Count(v)
		if c < int64(3*eps*n) {
			continue // below both structures' noise floors
		}
		w := whole.Estimate(v)
		s := sliding.Estimate(v)
		// Each is within eps-ish of truth; they must be within combined
		// slack of each other.
		if math.Abs(float64(w-s)) > 2*eps*float64(2*n)+1 {
			t.Fatalf("whole=%d sliding=%d for %v (true %d)", w, s, v, c)
		}
	}

	wq := eng.NewQuantileEstimator(eps)
	sq := eng.NewSlidingQuantile(eps, 2*n)
	wq.ProcessSlice(data)
	sq.ProcessSlice(data)
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		a, b := wq.Query(phi), sq.Query(phi)
		ia, _ := truth.Ranks(a)
		ib, _ := truth.Ranks(b)
		if math.Abs(float64(ia-ib)) > 4*eps*float64(2*n)+2 {
			t.Fatalf("phi=%v: whole %v (rank %d) vs sliding %v (rank %d)", phi, a, ia, b, ib)
		}
	}
}

func TestAllSortersAgreeOnManyDistributions(t *testing.T) {
	dists := map[string][]float32{
		"uniform":  stream.Uniform(30000, 1),
		"zipf":     stream.Zipf(30000, 1.1, 777, 2),
		"gauss":    stream.Gaussian(30000, 0, 5, 3),
		"sorted":   stream.Sorted(30000),
		"reversed": stream.ReverseSorted(30000),
		"nearly":   stream.NearlySorted(30000, 0.02, 4),
		"bursty":   stream.Bursty(30000, 100, 500, 0.01, 5),
	}
	backends := []Backend{BackendGPU, BackendGPUBitonic, BackendCPU, BackendCPUParallel}
	for name, data := range dists {
		want := append([]float32(nil), data...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, b := range backends {
			got := append([]float32(nil), data...)
			New(b).Sort(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v on %s: mismatch at %d", b, name, i)
				}
			}
		}
		// Radix baseline agrees too.
		got := append([]float32(nil), data...)
		new(cpusort.Radix[float32]).Sort(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("radix on %s: mismatch at %d", name, i)
			}
		}
	}
}
