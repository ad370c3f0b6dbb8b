package frequency

import (
	"math"
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

func newCPU(eps float64) *Estimator[float32] {
	return NewEstimator(eps, cpusort.QuicksortSorter[float32]{})
}

func TestEstimatorUndercountBound(t *testing.T) {
	const eps = 0.01
	data := stream.Zipf(50000, 1.2, 500, 1)
	e := newCPU(eps)
	x := oracle.New(data)
	e.ProcessSlice(data)
	e.Flush()

	n := float64(e.Count())
	for v := 0; v < 500; v++ {
		truth := x.Count(float32(v))
		est := e.Estimate(float32(v))
		if est > truth {
			t.Fatalf("value %d overcounted: est %d > true %d", v, est, truth)
		}
		if float64(truth-est) > eps*n+1e-9 {
			t.Fatalf("value %d undercounted beyond eps*N: est %d true %d", v, est, truth)
		}
	}
}

func TestEstimatorNoFalseNegatives(t *testing.T) {
	const eps, s = 0.005, 0.02
	data := stream.Zipf(40000, 1.3, 2000, 2)
	e := newCPU(eps)
	x := oracle.New(data)
	e.ProcessSlice(data)

	if err := oracle.Support(x, e.Query(s), s); err != nil {
		t.Fatal(err)
	}
	// And no wild false positives: everything reported has true frequency
	// >= (s - 2eps) * N (query threshold minus the undercount).
	for _, it := range e.Query(s) {
		if truth := x.Count(it.Value); float64(truth) < (s-2*eps)*float64(x.N())-1e-9 {
			t.Fatalf("false positive beyond guarantee: %v true=%d", it.Value, truth)
		}
	}
}

func TestEstimatorQuick(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		const eps = 0.1
		e := newCPU(eps)
		vals := make([]float32, len(raw))
		for i, b := range raw {
			vals[i] = float32(b % 16)
			e.Process(vals[i])
		}
		e.Flush()
		x := oracle.New(vals)
		n := float64(x.N())
		for v := 0; v < 16; v++ {
			truth := x.Count(float32(v))
			est := e.Estimate(float32(v))
			if est > truth || float64(truth-est) > eps*n+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorGPUBackendMatchesCPU(t *testing.T) {
	const eps = 0.01
	data := stream.Zipf(20000, 1.1, 300, 3)
	cpu := newCPU(eps)
	gpu := NewEstimator(eps, gpusort.NewSorter[float32]())
	cpu.ProcessSlice(data)
	gpu.ProcessSlice(data)
	for v := 0; v < 300; v++ {
		if cpu.Estimate(float32(v)) != gpu.Estimate(float32(v)) {
			t.Fatalf("backends disagree on value %d", v)
		}
	}
}

func TestEstimatorSpaceBound(t *testing.T) {
	const eps = 0.001
	e := newCPU(eps)
	e.ProcessSlice(stream.UniformInts(200000, 1000000, 4))
	e.Flush()
	// O((1/eps) log(eps N)) with a generous constant.
	bound := int(10 / eps * math.Log(eps*float64(e.Count())+2))
	if e.SummarySize() > bound {
		t.Fatalf("summary size %d exceeds bound %d", e.SummarySize(), bound)
	}
}

func TestEstimatorStats(t *testing.T) {
	e := newCPU(0.01)
	e.ProcessSlice(stream.Uniform(1000, 5))
	e.Flush()
	st := e.Stats()
	if st.Windows != 10 || st.SortedValues != 1000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MergeOps == 0 || st.CompressOps == 0 {
		t.Fatalf("merge/compress not instrumented: %+v", st)
	}
	if st.Total() <= 0 || st.Sort <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEstimatorPartialWindowVisible(t *testing.T) {
	e := newCPU(0.1) // window 10
	for i := 0; i < 7; i++ {
		e.Process(42)
	}
	if got := e.Estimate(42); got != 7 {
		t.Fatalf("Estimate after partial window = %d, want 7", got)
	}
	if e.Count() != 7 {
		t.Fatalf("Count = %d", e.Count())
	}
}

func TestEstimatorQueryOrdering(t *testing.T) {
	e := newCPU(0.05)
	var data []float32
	for i := 0; i < 100; i++ {
		data = append(data, 1)
	}
	for i := 0; i < 50; i++ {
		data = append(data, 2)
	}
	e.ProcessSlice(data)
	items := e.Query(0.2)
	if len(items) < 2 || items[0].Value != 1 || items[1].Value != 2 {
		t.Fatalf("Query ordering = %v", items)
	}
}

func TestEstimatorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewEstimator(0, cpusort.QuicksortSorter[float32]{}) },
		func() { NewEstimator(1, cpusort.QuicksortSorter[float32]{}) },
		func() { newCPU(0.1).Query(1.5) },
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

func TestTopK(t *testing.T) {
	e := newCPU(0.001)
	e.ProcessSlice(stream.Zipf(30000, 1.3, 500, 20))
	top := e.TopK(5)
	if len(top) != 5 {
		t.Fatalf("TopK = %d items", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Freq > top[i-1].Freq {
			t.Fatal("TopK not ordered")
		}
	}
	if top[0].Value != 0 {
		t.Fatalf("TopK[0] = %v, want the Zipf head", top[0].Value)
	}
	if got := e.TopK(1 << 20); len(got) > e.SummarySize() {
		t.Fatal("TopK larger than summary")
	}
}

// TestMergeAfterSnapshotAllocatesOnce pins the copy-on-write hand-off: once a
// Snapshot holds the summary, the next window's merge allocates its output
// once, sized for every entry and bin, not by doubling appends. Snapshot's
// own view is the other allocation.
func TestMergeAfterSnapshotAllocatesOnce(t *testing.T) {
	e := newCPU(0.001) // window 1000
	e.ProcessSlice(stream.Zipf(50000, 1.1, 1<<14, 7))
	win := stream.Zipf(1000, 1.1, 1<<14, 8)
	e.ProcessSlice(win)
	if a := testing.AllocsPerRun(20, func() { e.Snapshot(); e.ProcessSlice(win) }); a != 2 {
		t.Errorf("Snapshot + one merged window over %d entries: %v allocs, want 2", e.SummarySize(), a)
	}
}
