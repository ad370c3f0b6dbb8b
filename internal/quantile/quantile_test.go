package quantile

import (
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

func newCPU(eps float64, cap int64, opts ...pipeline.Option) *Estimator[float32] {
	return NewEstimator(eps, cap, cpusort.QuicksortSorter[float32]{}, opts...)
}

// rankError returns the normalized error of the estimator against the full
// data, probing a grid of quantiles.
func rankError(t *testing.T, e *Estimator[float32], data []float32) float64 {
	t.Helper()
	s := e.Summary()
	if s.N != int64(len(data)) {
		t.Fatalf("snapshot N = %d, want %d", s.N, len(data))
	}
	ref := append([]float32(nil), data...)
	cpusort.Quicksort(ref)
	return s.TrueRankError(ref)
}

func TestEstimatorErrorBound(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05} {
		for name, data := range map[string][]float32{
			"uniform":  stream.Uniform(30000, 1),
			"zipf":     stream.Zipf(30000, 1.1, 500, 2),
			"sorted":   stream.Sorted(30000),
			"reversed": stream.ReverseSorted(30000),
			"gauss":    stream.Gaussian(30000, 5, 2, 3),
		} {
			e := newCPU(eps, 30000)
			e.ProcessSlice(data)
			if got := rankError(t, e, data); got > eps+1e-9 {
				t.Fatalf("%s eps=%v: rank error %v", name, eps, got)
			}
		}
	}
}

func TestEstimatorPartialWindow(t *testing.T) {
	const eps = 0.05
	data := stream.Uniform(1234, 4) // not a multiple of the window
	e := newCPU(eps, 10000)
	e.ProcessSlice(data)
	if got := rankError(t, e, data); got > eps+1e-9 {
		t.Fatalf("partial-window rank error %v", got)
	}
	// Querying must not disturb state: process more, query again.
	more := stream.Uniform(777, 5)
	e.ProcessSlice(more)
	all := append(append([]float32(nil), data...), more...)
	if got := rankError(t, e, all); got > eps+1e-9 {
		t.Fatalf("post-query rank error %v", got)
	}
}

func TestEstimatorQuick(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		const eps = 0.15
		e := newCPU(eps, int64(len(raw)), pipeline.WithWindow(5))
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
			e.Process(float32(v))
		}
		ref := append([]float32(nil), data...)
		cpusort.Quicksort(ref)
		return e.Summary().TrueRankError(ref) <= eps+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorGPUBackendMatchesCPU(t *testing.T) {
	const eps = 0.02
	data := stream.Uniform(20000, 6)
	cpu := newCPU(eps, 20000)
	gpu := NewEstimator(eps, 20000, gpusort.NewSorter[float32]())
	cpu.ProcessSlice(data)
	gpu.ProcessSlice(data)
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		if cpu.Query(phi) != gpu.Query(phi) {
			t.Fatalf("backends disagree at phi=%v: %v vs %v", phi, cpu.Query(phi), gpu.Query(phi))
		}
	}
}

func TestEstimatorSpaceSublinear(t *testing.T) {
	const eps = 0.01
	e := newCPU(eps, 1_000_000)
	e.ProcessSlice(stream.Uniform(300000, 7))
	// Memory is far below N: 750 windows of 102 entries each, held in 7
	// buckets whose budgets start at 1067 entries and grow 8/7 per prune.
	if got := e.SummaryEntries(); got > 10000 {
		t.Fatalf("summary entries = %d, not sublinear", got)
	}
	// Bucket count is logarithmic in the number of windows.
	if got := e.Buckets(); got > 10 {
		t.Fatalf("buckets = %d for 750 windows", got)
	}
}

func TestEstimatorMedianAccuracy(t *testing.T) {
	e := newCPU(0.01, 100000)
	e.ProcessSlice(stream.Sorted(100000))
	med := e.Query(0.5)
	if med < 49000 || med > 51000 {
		t.Fatalf("median = %v", med)
	}
	if min := e.Query(0); min > 1000 {
		t.Fatalf("phi=0 = %v", min)
	}
	if max := e.Query(1); max < 99000 {
		t.Fatalf("phi=1 = %v", max)
	}
}

func TestEstimatorStats(t *testing.T) {
	e := newCPU(0.01, 10000)
	// 25 windows of 4/eps values: enough for combines that prune.
	e.ProcessSlice(stream.Uniform(10000, 8))
	st := e.Stats()
	if st.Windows != 25 || st.SortedValues != 10000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MergeOps == 0 || st.CompressOps == 0 {
		t.Fatalf("merge/compress not instrumented: %+v", st)
	}
	if st.Sort <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEstimatorDeepStreamBeyondLevels(t *testing.T) {
	// The capacity argument is ignored: a stream 50 times longer, nine
	// levels deep, stays within the bound itself.
	const eps = 0.1
	e := newCPU(eps, 100, pipeline.WithWindow(10))
	data := stream.Uniform(5000, 9)
	e.ProcessSlice(data)
	if got := rankError(t, e, data); got > eps+1e-9 {
		t.Fatalf("rank error %v beyond capacity", got)
	}
}

func TestEstimatorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewEstimator(0, 10, cpusort.QuicksortSorter[float32]{}) },
		func() { NewEstimator(1.5, 10, cpusort.QuicksortSorter[float32]{}) },
		func() { newCPU(0.1, 10).Query(0.5) }, // empty stream
		func() { newCPU(0.1, 10, pipeline.WithWindow(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestWindowOptionHonored(t *testing.T) {
	e := newCPU(0.01, 1000, pipeline.WithWindow(250))
	if e.WindowSize() != 250 {
		t.Fatalf("WindowSize = %d", e.WindowSize())
	}
	e.ProcessSlice(stream.Uniform(1000, 10))
	if e.Stats().Windows != 4 {
		t.Fatalf("windows = %d, want 4", e.Stats().Windows)
	}
}

func TestGKBaselineComparable(t *testing.T) {
	// The single-element GK baseline and the window-based estimator must
	// agree within their bounds on the same stream.
	const eps = 0.02
	data := stream.Uniform(20000, 11)
	e := newCPU(eps, 20000)
	gk := summary.NewGK[float32](eps)
	for _, v := range data {
		gk.Insert(v)
	}
	e.ProcessSlice(data)
	ref := append([]float32(nil), data...)
	cpusort.Quicksort(ref)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		idx := int(phi * float64(len(ref)-1))
		truth := ref[idx]
		window := e.Query(phi)
		single := gk.Query(phi)
		span := ref[min(len(ref)-1, idx+2*int(eps*float64(len(ref))))] - ref[max(0, idx-2*int(eps*float64(len(ref))))]
		if abs32(window-truth) > span+1e-6 || abs32(single-truth) > span+1e-6 {
			t.Fatalf("phi=%v: window=%v single=%v truth=%v", phi, window, single, truth)
		}
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
