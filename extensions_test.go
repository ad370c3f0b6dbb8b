package gpustream

import (
	"math"
	"testing"

	"gpustream/internal/stream"
)

func TestHHHThroughEngine(t *testing.T) {
	eng := NewOf[uint32](BackendGPU)
	est := NewHHHEstimator(eng, NewBitHierarchy[uint32](16, 8), 0.005)
	r := stream.NewRNG(1)
	for i := 0; i < 30000; i++ {
		if i%5 == 0 {
			est.Process(0xAB00 | uint32(r.Intn(100)))
		} else {
			est.Process(uint32(r.Intn(1 << 16)))
		}
	}
	hits := est.Query(0.1)
	found := false
	for _, p := range hits {
		if p.Level == 1 && p.Value == 0xAB00 {
			found = true
		}
	}
	if !found {
		t.Fatalf("collectively-heavy prefix missing: %v", hits)
	}
}

func TestCorrelatedSumThroughEngine(t *testing.T) {
	eng := New(BackendGPU)
	est := eng.NewCorrelatedSum(0.01, 20000)
	var pairs []Pair
	r := stream.NewRNG(2)
	for i := 0; i < 20000; i++ {
		p := Pair{X: float32(r.Float64() * 100), Y: r.Float64() * 3}
		pairs = append(pairs, p)
		est.Process(p)
	}
	truth := func(t float32) float64 {
		total := 0.0
		for _, p := range pairs {
			if p.X <= t {
				total += p.Y
			}
		}
		return total
	}
	for _, tt := range []float32{10, 50, 90} {
		got := est.Sum(tt)
		want := truth(tt)
		if math.Abs(got-want) > 0.01*truth(1000)+30 {
			t.Fatalf("Sum(%v) = %v, truth %v", tt, got, want)
		}
	}
}

func TestSensorTreeThroughEngine(t *testing.T) {
	eng := New(BackendGPU)
	root := &SensorNode{
		Children: []*SensorNode{
			{Observations: stream.Gaussian(4096, 10, 2, 1)},
			{Observations: stream.Gaussian(4096, 20, 2, 2)},
			{Children: []*SensorNode{
				{Observations: stream.Gaussian(4096, 30, 2, 3)},
			}},
		},
	}
	s, st := eng.AggregateSensorTree(root, 0.02)
	if s.N != 3*4096 {
		t.Fatalf("N = %d", s.N)
	}
	if st.Nodes != 5 || st.Observations != 3*4096 {
		t.Fatalf("stats = %+v", st)
	}
	med := s.Query(0.5)
	if med < 12 || med > 28 {
		t.Fatalf("median = %v", med)
	}
}

func TestKthLargestFacade(t *testing.T) {
	data := stream.Uniform(2000, 5)
	ref := append([]float32(nil), data...)
	New(BackendCPU).Sort(ref)
	for _, k := range []int{1, 1000, 2000} {
		if got := KthLargest(data, k); got != ref[len(ref)-k] {
			t.Fatalf("KthLargest(%d) = %v, want %v", k, got, ref[len(ref)-k])
		}
	}
}

func TestQuantize16Facade(t *testing.T) {
	data := []float32{1.0000001, 3.14159265}
	Quantize16(data)
	if data[0] != 1 {
		t.Fatalf("Quantize16 = %v", data)
	}
	// Order preserved on a random stream.
	d := stream.Uniform(1000, 6)
	sorted := append([]float32(nil), d...)
	New(BackendCPU).Sort(sorted)
	Quantize16(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatal("quantization broke ordering")
		}
	}
}
