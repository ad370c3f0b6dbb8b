package quantile

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
	"weak"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/oracle"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

func newCPU(eps float64, cap int64, opts ...pipeline.Option) *Estimator[float32] {
	return NewEstimator(eps, cap, cpusort.QuicksortSorter[float32]{}, opts...)
}

// summaryError is the oracle's GridError of the estimator's summary, which
// must cover all of data.
func summaryError(t *testing.T, e *Estimator[float32], data []float32) float64 {
	t.Helper()
	s := e.Summary()
	if s.N != int64(len(data)) {
		t.Fatalf("snapshot N = %d, want %d", s.N, len(data))
	}
	return oracle.New(data).GridError(s.QueryRank)
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
			if got := summaryError(t, e, data); got > eps+1e-9 {
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
	if got := summaryError(t, e, data); got > eps+1e-9 {
		t.Fatalf("partial-window rank error %v", got)
	}
	// Querying must not disturb state: process more, query again.
	more := stream.Uniform(777, 5)
	e.ProcessSlice(more)
	all := append(append([]float32(nil), data...), more...)
	if got := summaryError(t, e, all); got > eps+1e-9 {
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
		return oracle.New(data).GridError(e.Summary().QueryRank) <= eps+1e-9
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
	// Memory is far below N: 750 windows, paired into 375 level-0 summaries
	// of 101 entries each, held in 7 buckets whose budgets start at 1067
	// entries and grow 8/7 per prune.
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
	// 50 windows of 4/eps values, 25 level-0 buckets of 101 entries each:
	// the first prune is the combine of two level-3 buckets, 32 windows in.
	e.ProcessSlice(stream.Uniform(20000, 8))
	st := e.Stats()
	if st.Windows != 50 || st.SortedValues != 20000 {
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
	if got := summaryError(t, e, data); got > eps+1e-9 {
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

// dropView forgets the estimator's last view, so the next read rebuilds it.
func dropView[T sorter.Value](e *Estimator[T]) { e.view = weak.Pointer[summary.Summary[T]]{} }

// TestViewCachePinsNothing checks the view cache both ways: while a caller
// holds a view, the next read of the unchanged stream returns it without a
// rebuild; once no caller holds it, a collection frees it, and the view
// built again marshals to the same bytes.
func TestViewCachePinsNothing(t *testing.T) {
	e := newCPU(0.01, 0)
	// Buckets, a held window and a buffered partial one all feed the view.
	if err := e.ProcessSlice(stream.Zipf(5*e.WindowSize()+e.WindowSize()/2, 1.1, 1000, 3)); err != nil {
		t.Fatal(err)
	}
	// read marshals a fresh Snapshot's view and reports whether it was the
	// cached one, keeping no reference to it.
	read := func() ([]byte, bool) {
		view := e.Summary()
		b, err := NewSnapshot(view, e.Eps()).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b, view == e.view.Value()
	}

	held := e.Snapshot().(*Snapshot[float32]).Summary()
	if again := e.Snapshot().(*Snapshot[float32]).Summary(); again != held {
		t.Fatal("a second Snapshot of an unchanged stream rebuilt the view its caller still holds")
	}
	want, _ := read()
	runtime.KeepAlive(held)

	runtime.GC()
	if e.view.Value() != nil {
		t.Fatal("after a collection the estimator still references a view no caller holds")
	}
	got, cached := read()
	if !cached {
		t.Fatal("the rebuilt view is not cached")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the rebuilt view marshals to different bytes")
	}
}
