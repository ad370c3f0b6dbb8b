package stream

import (
	"math"
	"testing"
)

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]float32{1, 2, 3})
	if got := src.Remaining(); got != 3 {
		t.Fatalf("Remaining = %d, want 3", got)
	}
	for want := 1; want <= 3; want++ {
		v, ok := src.Next()
		if !ok || v != float32(want) {
			t.Fatalf("Next = (%v, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next after exhaustion reported ok")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next must keep returning false after exhaustion")
	}
}

func TestCollect(t *testing.T) {
	src := NewSliceSource([]float32{1, 2, 3, 4})
	got := Collect(src, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Collect(2) = %v", got)
	}
	rest := Collect(src, -1)
	if len(rest) != 2 || rest[0] != 3 {
		t.Fatalf("Collect(-1) = %v", rest)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at the xorshift fixed point")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUniform(t *testing.T) {
	data := Uniform(10000, 1)
	var sum float64
	for _, v := range data {
		if v < 0 || v >= 1 {
			t.Fatalf("uniform value %v out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / float64(len(data))
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUniformIntsVocabulary(t *testing.T) {
	data := UniformInts(5000, 16, 3)
	for _, v := range data {
		if v != float32(int(v)) || v < 0 || v >= 16 {
			t.Fatalf("UniformInts produced non-item value %v", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	data := Gaussian(50000, 10, 2, 5)
	var sum, sq float64
	for _, v := range data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(len(data))
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("gaussian mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("gaussian stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestSortedAndReverse(t *testing.T) {
	up := Sorted(100)
	down := ReverseSorted(100)
	for i := 1; i < 100; i++ {
		if up[i] <= up[i-1] {
			t.Fatal("Sorted is not strictly increasing")
		}
		if down[i] >= down[i-1] {
			t.Fatal("ReverseSorted is not strictly decreasing")
		}
	}
}

func TestNearlySorted(t *testing.T) {
	data := NearlySorted(1000, 0.01, 9)
	inversions := 0
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("NearlySorted produced a fully sorted sequence")
	}
	if inversions > 100 {
		t.Fatalf("NearlySorted produced %d inversions, far more than the swap budget", inversions)
	}
}

func TestZipfSkew(t *testing.T) {
	data := Zipf(20000, 1.2, 100, 11)
	counts := make(map[float32]int)
	for _, v := range data {
		if v < 0 || v >= 100 {
			t.Fatalf("zipf item %v out of vocabulary", v)
		}
		counts[v]++
	}
	// Item 0 must dominate item 50 under a Zipf law.
	if counts[0] <= counts[50]*2 {
		t.Fatalf("zipf not skewed: count(0)=%d count(50)=%d", counts[0], counts[50])
	}
}

func TestZipfPanicsOnBadVocab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf with vocab 0 did not panic")
		}
	}()
	Zipf(10, 1, 0, 1)
}

func TestBursty(t *testing.T) {
	data := Bursty(10000, 50, 200, 0.01, 13)
	if len(data) != 10000 {
		t.Fatalf("Bursty length = %d", len(data))
	}
	// Bursts should create runs of identical values.
	maxRun, run := 1, 1
	for i := 1; i < len(data); i++ {
		if data[i] == data[i-1] {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 1
		}
	}
	if maxRun < 50 {
		t.Fatalf("longest run %d; expected burst-induced runs", maxRun)
	}
}
