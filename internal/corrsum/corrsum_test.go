package corrsum

import (
	"math"
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/stream"
)

func randomPairs(n int, seed uint64) []Pair {
	r := stream.NewRNG(seed)
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{X: float32(r.Float64() * 100), Y: r.Float64() * 5}
	}
	return out
}

func trueSum(pairs []Pair, t float32) float64 {
	total := 0.0
	for _, p := range pairs {
		if p.X <= t {
			total += p.Y
		}
	}
	return total
}

func maxY(pairs []Pair) float64 {
	m := 0.0
	for _, p := range pairs {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

func newCPU(eps float64, cap int64) *Estimator {
	return NewEstimator(eps, cap, cpusort.QuicksortSorter[float32]{})
}

func TestSumErrorBound(t *testing.T) {
	const eps = 0.01
	pairs := randomPairs(30000, 1)
	e := newCPU(eps, 30000)
	e.ProcessSlice(pairs)

	totalW := trueSum(pairs, math.MaxFloat32)
	bound := eps*totalW + 10*maxY(pairs)
	for i := 0; i <= 20; i++ {
		tt := float32(i * 5)
		got := e.Sum(tt)
		truth := trueSum(pairs, tt)
		if d := got - truth; d > bound || d < -bound {
			t.Fatalf("Sum(%v) = %v, truth %v (bound %v)", tt, got, truth, bound)
		}
	}
	if d := e.Total() - totalW; d > 1e-6*totalW || d < -1e-6*totalW {
		t.Fatalf("Total = %v, want %v", e.Total(), totalW)
	}
}

func TestSumWithPartialWindow(t *testing.T) {
	const eps = 0.05
	pairs := randomPairs(1237, 2) // not a multiple of the window
	e := newCPU(eps, 10000)
	e.ProcessSlice(pairs)
	totalW := trueSum(pairs, math.MaxFloat32)
	bound := eps*totalW + 5*maxY(pairs)
	for i := 0; i <= 10; i++ {
		tt := float32(i * 10)
		if d := e.Sum(tt) - trueSum(pairs, tt); d > bound || d < -bound {
			t.Fatalf("partial-window Sum(%v) off by %v", tt, d)
		}
	}
	// State undisturbed by queries.
	more := randomPairs(500, 3)
	e.ProcessSlice(more)
	all := append(append([]Pair(nil), pairs...), more...)
	if d := e.Total() - trueSum(all, math.MaxFloat32); math.Abs(d) > 1e-6*e.Total() {
		t.Fatalf("Total drifted by %v after queries", d)
	}
}

func TestSumQuick(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		const eps = 0.1
		e := newCPU(eps, int64(len(raw)))
		pairs := make([]Pair, len(raw))
		for i, b := range raw {
			pairs[i] = Pair{X: float32(b % 50), Y: float64(b%7) + 1}
			e.Process(pairs[i])
		}
		totalW := trueSum(pairs, math.MaxFloat32)
		bound := eps*totalW + 10*maxY(pairs) + 1e-6
		for _, tt := range []float32{0, 10, 25, 49} {
			if d := e.Sum(tt) - trueSum(pairs, tt); d > bound || d < -bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSumGPUBackendMatchesCPU(t *testing.T) {
	pairs := randomPairs(10000, 4)
	cpu := newCPU(0.02, 10000)
	gpu := NewEstimator(0.02, 10000, gpusort.NewSorter[float32]())
	cpu.ProcessSlice(pairs)
	gpu.ProcessSlice(pairs)
	for i := 0; i <= 10; i++ {
		tt := float32(i * 10)
		if cpu.Sum(tt) != gpu.Sum(tt) {
			t.Fatalf("backends disagree at %v: %v vs %v", tt, cpu.Sum(tt), gpu.Sum(tt))
		}
	}
}

func TestSumAtQuantile(t *testing.T) {
	// Keys 0..999 with unit values: SUM below the median key ~ N/2.
	e := newCPU(0.01, 10000)
	for i := 0; i < 10000; i++ {
		e.Process(Pair{X: float32(i % 1000), Y: 1})
	}
	got := e.SumAtQuantile(0.5)
	if got < 4500 || got > 5500 {
		t.Fatalf("SumAtQuantile(0.5) = %v, want ~5000", got)
	}
	if e.SumAtQuantile(1) < 9000 {
		t.Fatalf("SumAtQuantile(1) = %v", e.SumAtQuantile(1))
	}
}

func TestDuplicateKeysWithDistinctValues(t *testing.T) {
	// Many pairs share keys; total mass must be preserved exactly.
	e := newCPU(0.05, 1000)
	var want float64
	for i := 0; i < 1000; i++ {
		y := float64(i%5) + 0.5
		e.Process(Pair{X: float32(i % 10), Y: y})
		want += y
	}
	if d := e.Total() - want; math.Abs(d) > 1e-6 {
		t.Fatalf("Total = %v, want %v", e.Total(), want)
	}
	if got := e.Sum(100); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Sum beyond max key = %v, want %v", got, want)
	}
	if got := e.Sum(-1); got != 0 {
		t.Fatalf("Sum below min key = %v", got)
	}
}

func TestSpaceAndInstrumentation(t *testing.T) {
	e := newCPU(0.01, 100000)
	e.ProcessSlice(randomPairs(50000, 5))
	if e.SummaryEntries() > 40000 {
		t.Fatalf("summary entries %d not sublinear", e.SummaryEntries())
	}
	if e.SortedValues() == 0 || e.Stats().Sort <= 0 {
		t.Fatal("instrumentation missing")
	}
	if e.Count() != 50000 {
		t.Fatalf("Count = %d", e.Count())
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewEstimator(0, 10, cpusort.QuicksortSorter[float32]{}) },
		func() { NewEstimator(1, 10, cpusort.QuicksortSorter[float32]{}) },
		func() { newCPU(0.1, 10).Process(Pair{X: 1, Y: -2}) },
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

// TestProcessRejectsNonFiniteValues: one NaN value would make Total and
// every Sum NaN for good, and one +Inf value would hang the first Sum and
// every later window flush in the summary's checkpoint loop.
func TestProcessRejectsNonFiniteValues(t *testing.T) {
	for name, y := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1)} {
		t.Run(name, func(t *testing.T) {
			e := newCPU(0.1, 10)
			e.Process(Pair{X: 1, Y: 1})
			defer func() {
				if r := recover(); r != "corrsum: non-finite value" {
					t.Errorf("panic = %v, want the non-finite value panic", r)
				}
				if e.Count() != 1 || e.Total() != 1 {
					t.Errorf("after the rejected pair: count %d, total %v; want 1 and 1", e.Count(), e.Total())
				}
			}()
			e.Process(Pair{X: 2, Y: y})
		})
	}
}

func TestEmptyEstimator(t *testing.T) {
	e := newCPU(0.1, 10)
	if e.Sum(5) != 0 || e.Total() != 0 || e.SumAtQuantile(0.5) != 0 {
		t.Fatal("empty estimator should answer 0")
	}
}

func TestAccessors(t *testing.T) {
	e := newCPU(0.05, 1000)
	if e.Eps() != 0.05 {
		t.Fatal("Eps accessor")
	}
	e.ProcessSlice(randomPairs(500, 9))
	if e.Stats().Total() <= 0 || e.Stats().Windows == 0 {
		t.Fatal("Stats accessor")
	}
	// Deep stream exercises the top-level parking branch of flush.
	deep := NewEstimator(0.2, 10, cpusort.QuicksortSorter[float32]{})
	pairs := randomPairs(2000, 10)
	deep.ProcessSlice(pairs)
	total := 0.0
	for _, p := range pairs {
		total += p.Y
	}
	if d := deep.Total() - total; math.Abs(d) > 1e-3*total {
		t.Fatalf("deep-stream Total = %v, want %v", deep.Total(), total)
	}
}

func TestSumAtQuantileClamps(t *testing.T) {
	e := newCPU(0.1, 100)
	for i := 0; i < 100; i++ {
		e.Process(Pair{X: float32(i), Y: 1})
	}
	if e.SumAtQuantile(-1) != e.SumAtQuantile(0) {
		t.Fatal("negative phi not clamped")
	}
	if e.SumAtQuantile(2) != e.SumAtQuantile(1) {
		t.Fatal("phi > 1 not clamped")
	}
}
