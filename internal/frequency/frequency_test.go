package frequency

import (
	"math"
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/stream"
)

func newCPU(eps float64) *Estimator[float32] {
	return NewEstimator(eps, cpusort.QuicksortSorter[float32]{})
}

func TestEstimatorUndercountBound(t *testing.T) {
	const eps = 0.01
	data := stream.Zipf(50000, 1.2, 500, 1)
	e := newCPU(eps)
	x := NewExact[float32]()
	e.ProcessSlice(data)
	x.ProcessSlice(data)
	e.Flush()

	n := float64(e.Count())
	for v, truth := 0, int64(0); v < 500; v++ {
		truth = x.Estimate(float32(v))
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
	x := NewExact[float32]()
	e.ProcessSlice(data)
	x.ProcessSlice(data)

	reported := map[float32]bool{}
	for _, it := range e.Query(s) {
		reported[it.Value] = true
	}
	for _, it := range x.Query(s) {
		if !reported[it.Value] {
			t.Fatalf("false negative: %v (true freq %d, sN=%v)", it.Value, it.Freq, s*float64(x.Count()))
		}
	}
	// And no wild false positives: everything reported has true frequency
	// >= (s - 2eps) * N (query threshold minus the undercount).
	for _, it := range e.Query(s) {
		if truth := x.Estimate(it.Value); float64(truth) < (s-2*eps)*float64(x.Count())-1e-9 {
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
		x := NewExact[float32]()
		for _, b := range raw {
			v := float32(b % 16)
			e.Process(v)
			x.Process(v)
		}
		e.Flush()
		n := float64(x.Count())
		for v := 0; v < 16; v++ {
			truth := x.Estimate(float32(v))
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

func TestMisraGriesBound(t *testing.T) {
	const k = 99 // eps = 1/(k+1) = 0.01
	data := stream.Zipf(30000, 1.2, 400, 6)
	m := NewMisraGries[float32](k)
	x := NewExact[float32]()
	m.ProcessSlice(data)
	x.ProcessSlice(data)
	epsN := float64(m.Count()) / float64(k+1)
	for v := 0; v < 400; v++ {
		truth := x.Estimate(float32(v))
		est := m.Estimate(float32(v))
		if est > truth {
			t.Fatalf("MG overcounted %d", v)
		}
		if float64(truth-est) > epsN+1e-9 {
			t.Fatalf("MG undercounted %d beyond N/(k+1)", v)
		}
	}
	if m.Size() > k {
		t.Fatalf("MG size %d > k", m.Size())
	}
}

func TestMisraGriesNoFalseNegatives(t *testing.T) {
	data := stream.Zipf(30000, 1.4, 1000, 7)
	m := NewMisraGries[float32](199)
	x := NewExact[float32]()
	m.ProcessSlice(data)
	x.ProcessSlice(data)
	reported := map[float32]bool{}
	for _, it := range m.Query(0.05) {
		reported[it.Value] = true
	}
	for _, it := range x.Query(0.05) {
		if !reported[it.Value] {
			t.Fatalf("MG false negative on %v", it.Value)
		}
	}
}

func TestSpaceSavingBounds(t *testing.T) {
	const k = 100
	data := stream.Zipf(30000, 1.2, 400, 8)
	s := NewSpaceSaving[float32](k)
	x := NewExact[float32]()
	s.ProcessSlice(data)
	x.ProcessSlice(data)
	maxOver := float64(s.Count()) / float64(k)
	for v := 0; v < 400; v++ {
		truth := x.Estimate(float32(v))
		est := s.Estimate(float32(v))
		if est != 0 && est < truth {
			t.Fatalf("SS undercounted tracked item %d: est %d true %d", v, est, truth)
		}
		if float64(est-truth) > maxOver+1e-9 {
			t.Fatalf("SS overcounted %d beyond N/k", v)
		}
	}
	if s.Size() > k {
		t.Fatalf("SS size %d > k", s.Size())
	}
}

func TestSpaceSavingNoFalseNegatives(t *testing.T) {
	data := stream.Zipf(30000, 1.4, 1000, 9)
	s := NewSpaceSaving[float32](200)
	x := NewExact[float32]()
	s.ProcessSlice(data)
	x.ProcessSlice(data)
	reported := map[float32]bool{}
	for _, it := range s.Query(0.05) {
		reported[it.Value] = true
	}
	for _, it := range x.Query(0.05) {
		if !reported[it.Value] {
			t.Fatalf("SS false negative on %v", it.Value)
		}
	}
}

func TestBaselinePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMisraGries[float32](0) },
		func() { NewSpaceSaving[float32](-1) },
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

func TestExactCounter(t *testing.T) {
	x := NewExact[float32]()
	x.ProcessSlice([]float32{1, 2, 1, 1, 3})
	if x.Count() != 5 || x.Estimate(1) != 3 || x.Estimate(9) != 0 {
		t.Fatal("exact counter wrong")
	}
	items := x.Query(0.4)
	if len(items) != 1 || items[0].Value != 1 {
		t.Fatalf("exact Query = %v", items)
	}
}

func TestCountMinNeverUndercounts(t *testing.T) {
	data := stream.Zipf(30000, 1.2, 400, 14)
	cm := NewCountMin[float32](0.005, 0.01)
	x := NewExact[float32]()
	cm.ProcessSlice(data)
	x.ProcessSlice(data)
	for v := 0; v < 400; v++ {
		if cm.Estimate(float32(v)) < x.Estimate(float32(v)) {
			t.Fatalf("CountMin[float32] undercounted %d", v)
		}
	}
}

func TestCountMinOvercountBound(t *testing.T) {
	data := stream.Zipf(30000, 1.2, 400, 15)
	cm := NewCountMin[float32](0.005, 0.001)
	x := NewExact[float32]()
	cm.ProcessSlice(data)
	x.ProcessSlice(data)
	epsN := 0.005 * float64(cm.Count())
	violations := 0
	for v := 0; v < 400; v++ {
		if float64(cm.Estimate(float32(v))-x.Estimate(float32(v))) > epsN {
			violations++
		}
	}
	// With delta=0.001 per query, at most a couple of the 400 probes may
	// exceed the bound.
	if violations > 4 {
		t.Fatalf("CountMin[float32] exceeded eps*N on %d/400 probes", violations)
	}
}

func TestCountMinDeletions(t *testing.T) {
	cm := NewCountMin[float32](0.01, 0.01)
	for i := 0; i < 100; i++ {
		cm.Update(7, 1)
	}
	cm.Update(7, -40)
	if got := cm.Estimate(7); got != 60 {
		t.Fatalf("after deletions Estimate = %d, want 60", got)
	}
	if cm.Count() != 60 {
		t.Fatalf("Count = %d", cm.Count())
	}
}

func TestCountMinDimensions(t *testing.T) {
	cm := NewCountMin[float32](0.01, 0.01)
	if cm.Width() < int(math.Ceil(math.E/0.01)) {
		t.Fatalf("width %d too small", cm.Width())
	}
	if cm.Depth() < 4 { // ln(100) ~ 4.6
		t.Fatalf("depth %d too small", cm.Depth())
	}
}

func TestCountMinPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCountMin[float32](0, 0.1) },
		func() { NewCountMin[float32](0.1, 0) },
		func() { NewCountMin[float32](1, 0.1) },
		func() { NewCountMin[float32](0.1, 1) },
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

func TestCountMinQuick(t *testing.T) {
	prop := func(raw []uint8) bool {
		cm := NewCountMin[float32](0.05, 0.01)
		x := NewExact[float32]()
		for _, b := range raw {
			v := float32(b % 32)
			cm.Process(v)
			x.Process(v)
		}
		for v := 0; v < 32; v++ {
			if cm.Estimate(float32(v)) < x.Estimate(float32(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
