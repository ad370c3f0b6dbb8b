package window

import (
	"math"
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/stream"
)

func exactWindowCounts(data []float32, w int) map[float32]int64 {
	start := len(data) - w
	if start < 0 {
		start = 0
	}
	out := map[float32]int64{}
	for _, v := range data[start:] {
		out[v]++
	}
	return out
}

func TestSlidingFrequencyErrorBound(t *testing.T) {
	const eps = 0.02
	const W = 5000
	data := stream.Zipf(30000, 1.2, 300, 1)
	f := NewSlidingFrequency(eps, W, cpusort.QuicksortSorter[float32]{})
	f.ProcessSlice(data)
	truth := exactWindowCounts(data, W)
	for v := 0; v < 300; v++ {
		val := float32(v)
		est := f.Estimate(val)
		diff := math.Abs(float64(est - truth[val]))
		if diff > eps*float64(W)+1e-9 {
			t.Fatalf("value %d: est %d true %d diff %v > epsW", v, est, truth[val], diff)
		}
	}
}

func TestSlidingFrequencyNoFalseNegatives(t *testing.T) {
	const eps, s = 0.01, 0.05
	const W = 4000
	data := stream.Zipf(20000, 1.4, 500, 2)
	f := NewSlidingFrequency(eps, W, cpusort.QuicksortSorter[float32]{})
	f.ProcessSlice(data)
	truth := exactWindowCounts(data, W)
	reported := map[float32]bool{}
	for _, it := range f.Query(s) {
		reported[it.Value] = true
	}
	for v, c := range truth {
		if float64(c) >= s*float64(W) && !reported[v] {
			t.Fatalf("false negative: %v with true window count %d", v, c)
		}
	}
}

func TestSlidingFrequencyBeforeWindowFills(t *testing.T) {
	const eps = 0.05
	f := NewSlidingFrequency(eps, 1000, cpusort.QuicksortSorter[float32]{})
	f.ProcessSlice([]float32{1, 1, 2})
	if got := f.Estimate(1); got != 2 {
		t.Fatalf("Estimate(1) = %d before window fills", got)
	}
	items := f.Query(0.5)
	if len(items) == 0 || items[0].Value != 1 {
		t.Fatalf("Query = %v", items)
	}
}

func TestSlidingFrequencyVariableWindow(t *testing.T) {
	const eps = 0.02
	const W = 8000
	data := stream.Zipf(30000, 1.3, 200, 3)
	f := NewSlidingFrequency(eps, W, cpusort.QuicksortSorter[float32]{})
	f.ProcessSlice(data)
	for _, w := range []int{1000, 2500, 8000} {
		truth := exactWindowCounts(data, w)
		for _, it := range f.QueryWindow(0.05, w) {
			// Reported items must have a plausible true count: within
			// eps*W absolute of the estimate.
			if math.Abs(float64(it.Freq-truth[it.Value])) > eps*float64(W)+1e-9 {
				t.Fatalf("w=%d value %v: est %d true %d", w, it.Value, it.Freq, truth[it.Value])
			}
		}
	}
}

func TestSlidingFrequencyMemoryBounded(t *testing.T) {
	const eps = 0.01
	const W = 100000
	f := NewSlidingFrequency(eps, W, cpusort.QuicksortSorter[float32]{})
	f.ProcessSlice(stream.UniformInts(300000, 1000000, 4))
	if f.Panes() > (W+f.PaneSize()-1)/f.PaneSize() {
		t.Fatalf("panes = %d beyond ring bound", f.Panes())
	}
	bins := 0
	for _, p := range f.panes {
		bins += len(p.bins)
	}
	// Each pane keeps at most 2/eps heavy bins.
	if perPane := 2/eps + 2; float64(bins) > perPane*float64(f.Panes()) {
		t.Fatalf("retained bins %d exceed per-pane bound", bins)
	}
}

func TestSlidingFrequencyGPUBackendMatchesCPU(t *testing.T) {
	const eps = 0.05
	data := stream.Zipf(5000, 1.2, 100, 5)
	cpu := NewSlidingFrequency(eps, 2000, cpusort.QuicksortSorter[float32]{})
	gpu := NewSlidingFrequency(eps, 2000, gpusort.NewSorter[float32]())
	cpu.ProcessSlice(data)
	gpu.ProcessSlice(data)
	for v := 0; v < 100; v++ {
		if cpu.Estimate(float32(v)) != gpu.Estimate(float32(v)) {
			t.Fatalf("backends disagree on %d", v)
		}
	}
}

func TestSlidingFrequencyPanics(t *testing.T) {
	mk := func() *SlidingFrequency[float32] {
		return NewSlidingFrequency(0.1, 100, cpusort.QuicksortSorter[float32]{})
	}
	for _, fn := range []func(){
		func() { NewSlidingFrequency(0, 100, cpusort.QuicksortSorter[float32]{}) },
		func() { NewSlidingFrequency(0.1, 0, cpusort.QuicksortSorter[float32]{}) },
		func() { mk().Query(2) },
		func() { mk().QueryWindow(0.5, 0) },
		func() { mk().QueryWindow(0.5, 101) },
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

func trueWindowQuantile(data []float32, w int, phi float64) (float32, float32, float64) {
	start := len(data) - w
	if start < 0 {
		start = 0
	}
	win := append([]float32(nil), data[start:]...)
	cpusort.Quicksort(win)
	r := int(math.Ceil(phi * float64(len(win))))
	if r < 1 {
		r = 1
	}
	return win[r-1], 0, float64(len(win))
}

func windowRankOf(data []float32, w int, v float32) (lo, hi int) {
	start := len(data) - w
	if start < 0 {
		start = 0
	}
	win := append([]float32(nil), data[start:]...)
	cpusort.Quicksort(win)
	lo = len(win) + 1
	hi = 0
	for i, x := range win {
		if x == v {
			if i+1 < lo {
				lo = i + 1
			}
			hi = i + 1
		}
	}
	if hi == 0 { // value absent: rank position where it would insert
		for i, x := range win {
			if x > v {
				lo, hi = i, i
				return
			}
		}
		lo, hi = len(win), len(win)
	}
	return
}

func TestSlidingQuantileErrorBound(t *testing.T) {
	const eps = 0.02
	const W = 5000
	data := stream.Uniform(30000, 6)
	q := NewSlidingQuantile(eps, W, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(data)
	for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		got := q.Query(phi)
		r := int(math.Ceil(phi * float64(W)))
		lo, hi := windowRankOf(data, W, got)
		var d int
		switch {
		case r < lo:
			d = lo - r
		case r > hi:
			d = r - hi
		}
		if float64(d) > eps*float64(W)+1 {
			t.Fatalf("phi=%v: rank error %d > epsW", phi, d)
		}
	}
	_, _, _ = trueWindowQuantile(data, W, 0.5)
}

func TestSlidingQuantileQuick(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 4 {
			return true
		}
		const eps = 0.2
		const W = 50
		q := NewSlidingQuantile(eps, W, cpusort.QuicksortSorter[float32]{})
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
			q.Process(float32(v))
		}
		got := q.Query(0.5)
		span := W
		if len(data) < span {
			span = len(data)
		}
		r := (span + 1) / 2
		lo, hi := windowRankOf(data, W, got)
		var d int
		switch {
		case r < lo:
			d = lo - r
		case r > hi:
			d = r - hi
		}
		return float64(d) <= eps*float64(W)+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingQuantileVariableWindow(t *testing.T) {
	const eps = 0.02
	const W = 8000
	data := stream.Gaussian(30000, 100, 15, 7)
	q := NewSlidingQuantile(eps, W, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(data)
	for _, w := range []int{2000, 4000, 8000} {
		med := q.QueryWindow(0.5, w)
		r := (w + 1) / 2
		lo, hi := windowRankOf(data, w, med)
		var d int
		switch {
		case r < lo:
			d = lo - r
		case r > hi:
			d = r - hi
		}
		// Guarantee is absolute eps*W even for smaller w.
		if float64(d) > eps*float64(W)+1 {
			t.Fatalf("w=%d: rank error %d", w, d)
		}
	}
}

func TestSlidingQuantileMemoryBounded(t *testing.T) {
	const eps = 0.01
	const W = 100000
	q := NewSlidingQuantile(eps, W, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(stream.Uniform(250000, 8))
	// O((2/eps)^2) entries plus pane buffer.
	if got := q.SummaryEntries(); float64(got) > 4/(eps*eps)+float64(q.PaneSize()) {
		t.Fatalf("summary entries = %d beyond bound", got)
	}
}

func TestSlidingQuantileEmptyPanics(t *testing.T) {
	q := NewSlidingQuantile(0.1, 100, cpusort.QuicksortSorter[float32]{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Query(0.5)
}

func TestAccessorsAndStats(t *testing.T) {
	sf := NewSlidingFrequency(0.05, 1000, cpusort.QuicksortSorter[float32]{})
	sq := NewSlidingQuantile(0.05, 1000, cpusort.QuicksortSorter[float32]{})
	data := stream.Uniform(3000, 30)
	sf.ProcessSlice(data)
	sq.ProcessSlice(data)

	if sf.Eps() != 0.05 || sq.Eps() != 0.05 {
		t.Fatal("Eps accessor")
	}
	if sf.WindowSize() != 1000 || sq.WindowSize() != 1000 {
		t.Fatal("WindowSize accessor")
	}
	if sf.Count() != 3000 || sq.Count() != 3000 {
		t.Fatal("Count accessor")
	}
	if sf.SortedValues() == 0 || sq.SortedValues() == 0 {
		t.Fatal("SortedValues accessor")
	}
	if sf.Panes() == 0 || sq.Panes() == 0 {
		t.Fatal("Panes accessor")
	}
	_ = sf.Query(0.1)
	_ = sq.Query(0.5)
	if sf.Stats().Total() <= 0 || sq.Stats().Total() <= 0 {
		t.Fatal("Stats accessor")
	}
	if sf.Stats().Windows == 0 || sq.Stats().Windows == 0 {
		t.Fatal("Stats window count")
	}
	ws := sq.WindowSummary(500)
	if ws == nil || ws.N == 0 {
		t.Fatal("WindowSummary empty")
	}
}

func TestSlidingQuantilePaneClamp(t *testing.T) {
	// eps*W/2 > W forces the pane clamp branch.
	q := NewSlidingQuantile(0.9, 2, cpusort.QuicksortSorter[float32]{})
	if q.PaneSize() != 1 {
		t.Fatalf("PaneSize = %d", q.PaneSize())
	}
	f := NewSlidingFrequency(0.9, 1, cpusort.QuicksortSorter[float32]{})
	if f.PaneSize() != 1 {
		t.Fatalf("freq PaneSize = %d", f.PaneSize())
	}
}
