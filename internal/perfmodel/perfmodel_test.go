package perfmodel

import (
	"testing"
	"time"

	"gpustream/internal/gpusort"
	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
)

func TestClosedFormMatchesSimPBSN(t *testing.T) {
	for _, n := range []int{2, 5, 100, 4096, 10000, 65536} {
		s := gpusort.NewSorter[float32]()
		s.Sort(stream.Uniform(n, uint64(n)))
		got := s.LastStats().GPU
		want := PBSNStats(n)
		if got != want {
			t.Fatalf("n=%d: sim counters %+v != closed form %+v", n, got, want)
		}
	}
}

func TestClosedFormMatchesSimBitonic(t *testing.T) {
	for _, n := range []int{2, 100, 2048, 10000} {
		s := gpusort.NewBitonicSorter[float32]()
		s.Sort(stream.Uniform(n, uint64(n)))
		got := s.LastStats().GPU
		want := BitonicStats(n)
		if got != want {
			t.Fatalf("n=%d: sim counters %+v != closed form %+v", n, got, want)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	m := Default()

	// Paper Section 4.5: "around 3 times slower than optimized CPU-based
	// Quicksort for small values of n (n < 16K)".
	small := 16 << 10
	gpuSmall := m.PBSNSortTime(small).Total()
	cpuSmall := m.QuicksortTime(small, IntelHT)
	if ratio := float64(gpuSmall) / float64(cpuSmall); ratio < 1.5 || ratio > 6 {
		t.Fatalf("small-n GPU/CPU ratio = %.2f, want ~3x slower", ratio)
	}

	// Figure 3: at 8M the GPU sort is comparable to (slightly ahead of)
	// the Intel hyper-threaded quicksort.
	big := 8 << 20
	gpuBig := m.PBSNSortTime(big).Total()
	cpuBig := m.QuicksortTime(big, IntelHT)
	if ratio := float64(cpuBig) / float64(gpuBig); ratio < 0.8 || ratio > 2 {
		t.Fatalf("8M CPU/GPU ratio = %.2f, want comparable (~1x)", ratio)
	}

	// MSVC build is clearly slower than the Intel build.
	if m.QuicksortTime(big, MSVC) <= cpuBig {
		t.Fatal("MSVC quicksort should be slower than Intel's")
	}

	// Section 4.5: PBSN is "nearly an order of magnitude faster" than the
	// prior GPU bitonic sort.
	bit := m.BitonicSortTime(big).Total()
	if ratio := float64(bit) / float64(gpuBig); ratio < 5 || ratio > 20 {
		t.Fatalf("bitonic/PBSN ratio = %.2f, want ~10x", ratio)
	}
}

func TestFigure4Shape(t *testing.T) {
	m := Default()
	// "The data transfer times are not significant in comparison to the
	// time spent in performing comparisons and sorting" (Figure 4).
	for _, n := range []int{1 << 20, 4 << 20, 8 << 20} {
		b := m.PBSNSortTime(n)
		if b.Transfer*3 > b.Compute {
			t.Fatalf("n=%d: transfer %v not small vs compute %v", n, b.Transfer, b.Compute)
		}
	}
	// O(n log^2 n) scaling: estimating 1M from the 8M anchor must land
	// within a few percent of the direct model (paper: "within a few
	// milliseconds of accuracy").
	anchor := m.PBSNSortTime(8 << 20).Compute
	nBig, nSmall := float64(8<<20), float64(1<<20)
	lg := func(x float64) float64 {
		l := 0.0
		for v := 1.0; v < x/4; v *= 2 {
			l++
		}
		return l
	}
	est := time.Duration(float64(anchor) * (nSmall * lg(nSmall) * lg(nSmall)) / (nBig * lg(nBig) * lg(nBig)))
	direct := m.PBSNSortTime(1 << 20).Compute
	ratio := float64(est) / float64(direct)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("scaling estimate off: est=%v direct=%v", est, direct)
	}
}

func TestMonotoneInN(t *testing.T) {
	m := Default()
	prev := time.Duration(0)
	for n := 1 << 12; n <= 1<<23; n <<= 1 {
		cur := m.PBSNSortTime(n).Total()
		if cur <= prev {
			t.Fatalf("PBSN time not increasing at n=%d", n)
		}
		prev = cur
	}
}

func TestBusTime(t *testing.T) {
	m := Default()
	s := PBSNStats(1 << 20)
	bt := m.BusTime(s)
	// 1M values / 4 channels = 256K texels * 16 B = 4 MB each way at
	// 800 MB/s -> ~10 ms plus per-transfer latency.
	if bt < 9*time.Millisecond || bt > 12*time.Millisecond {
		t.Fatalf("BusTime = %v, want ~10ms", bt)
	}
}

func TestPipelineShapeFigure6(t *testing.T) {
	m := Default()
	// A typical frequency run: 100M values, eps = 1e-5 -> windows of 100K.
	c := pipeline.Stats{
		Windows:      1000,
		SortedValues: 100e6,
		MergeOps:     100e6,
		CompressOps:  10e6,
	}
	for _, backend := range []Backend{BackendCPU, BackendGPU} {
		b := m.PipelineTime(c, backend)
		// Section 3.2 / Figure 6: sorting takes 70-95% of the time.
		if share := float64(b.Sort) / float64(b.Total()); share < 0.70 || share > 0.98 {
			t.Fatalf("%v sort share = %.2f, want within the paper's 70-95%%", backend, share)
		}
	}
}

func TestPipelineGPUWinsAtLargeWindows(t *testing.T) {
	m := Default()
	mk := func(w int) pipeline.Stats {
		total := int64(16 << 20) // multiple of both window sizes below
		return pipeline.Stats{
			Windows:      total / int64(w),
			SortedValues: total,
			MergeOps:     total,
			CompressOps:  total / 10,
		}
	}
	// Figure 5: GPU better for large windows, worse for small ones.
	largeGPU := m.PipelineTime(mk(1<<20), BackendGPU).Total()
	largeCPU := m.PipelineTime(mk(1<<20), BackendCPU).Total()
	if largeGPU >= largeCPU {
		t.Fatalf("large windows: GPU %v not faster than CPU %v", largeGPU, largeCPU)
	}
	smallGPU := m.PipelineTime(mk(256), BackendGPU).Total()
	smallCPU := m.PipelineTime(mk(256), BackendCPU).Total()
	if smallGPU <= smallCPU {
		t.Fatalf("small windows: GPU %v should be slower than CPU %v", smallGPU, smallCPU)
	}
}

func TestVariantAndBackendStrings(t *testing.T) {
	if IntelHT.String() != "cpu-intel-ht" || MSVC.String() != "cpu-msvc" {
		t.Fatal("CPUVariant strings")
	}
	if BackendGPU.String() != "gpu" || BackendCPU.String() != "cpu" {
		t.Fatal("Backend strings")
	}
}

func TestDegenerateInputs(t *testing.T) {
	m := Default()
	if m.PBSNSortTime(0).Total() != 0 || m.PBSNSortTime(1).Total() != 0 {
		t.Fatal("trivial sorts should cost nothing")
	}
	if m.QuicksortTime(1, IntelHT) != 0 {
		t.Fatal("trivial quicksort should cost nothing")
	}
	if m.BitonicSortTime(1).Total() != 0 {
		t.Fatal("trivial bitonic should cost nothing")
	}
}

func TestProjectionWidensGap(t *testing.T) {
	// Section 4.5: the GPU/CPU gap should widen on future generations.
	base := Default()
	n := 8 << 20
	ratio := func(m Model) float64 {
		return float64(m.QuicksortTime(n, IntelHT)) / float64(m.PBSNSortTime(n).Total())
	}
	r0 := ratio(base)
	r2 := ratio(base.Project(2, PaperGrowthRates()))
	r4 := ratio(base.Project(4, PaperGrowthRates()))
	if !(r4 > r2 && r2 > r0) {
		t.Fatalf("gap not widening: %v, %v, %v", r0, r2, r4)
	}
	// After 4 years at 2x vs 1.5x the compute ratio alone grows (2/1.5)^4 ~ 3.2x.
	if r4 < 2*r0 {
		t.Fatalf("4-year projection ratio %v too small vs base %v", r4, r0)
	}
}

func TestProjectionZeroYearsIdentity(t *testing.T) {
	base := Default()
	p := base.Project(0, PaperGrowthRates())
	if p.GPU.CoreClockHz != base.GPU.CoreClockHz || p.CPU.ClockHz != base.CPU.ClockHz {
		t.Fatal("zero-year projection changed the model")
	}
}

// TestSampleSortBuckets pins the bucket-count rule the modeled-2004 sample
// sort closed form reads (moved here from internal/samplesort when the host
// backend became a radix sort): EXPERIMENTS.md figure 3 depends on it.
func TestSampleSortBuckets(t *testing.T) {
	cases := []struct{ n, k int }{
		{0, 1}, {sampleSortMinN - 1, 1}, {sampleSortMinN, 2}, {4 * sampleSortBucketLen, 4},
		{1 << 20, 512}, {10 << 20, 512}, {1 << 30, 512},
	}
	for _, c := range cases {
		k := sampleSortBuckets(c.n)
		if k != c.k {
			t.Errorf("sampleSortBuckets(%d) = %d, want %d", c.n, k, c.k)
		}
		if k&(k-1) != 0 {
			t.Errorf("sampleSortBuckets(%d) = %d not a power of two", c.n, k)
		}
	}
}
