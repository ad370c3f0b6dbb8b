package histogram

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/samplesort"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

func TestFromSortedBasics(t *testing.T) {
	bins := FromSorted([]float32{1, 1, 2, 5, 5, 5})
	want := []Bin[float32]{{1, 2}, {2, 1}, {5, 3}}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
}

func TestFromSortedEmpty(t *testing.T) {
	if bins := FromSorted[float32](nil); bins != nil {
		t.Fatalf("FromSorted[float32](nil) = %v", bins)
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromSorted([]float32{2, 1})
}

func TestFromSortedQuick(t *testing.T) {
	prop := func(raw []uint8) bool {
		data := make([]float32, len(raw))
		counts := map[float32]int64{}
		for i, v := range raw {
			data[i] = float32(v)
			counts[float32(v)]++
		}
		cpusort.Quicksort(data)
		bins := FromSorted(data)
		if Total(bins) != int64(len(raw)) {
			return false
		}
		for i, b := range bins {
			if counts[b.Value] != b.Count {
				return false
			}
			if i > 0 && bins[i-1].Value >= b.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeWithBothBackends(t *testing.T) {
	data := stream.UniformInts(5000, 50, 3)
	exact := map[float32]int64{}
	for _, v := range data {
		exact[v]++
	}
	backends := []sorter.Sorter[float32]{cpusort.QuicksortSorter[float32]{}, gpusort.NewSorter[float32]()}
	for _, s := range backends {
		win := append([]float32(nil), data...)
		bins := Compute(win, s)
		if Total(bins) != 5000 {
			t.Fatalf("%s: total %d", s.Name(), Total(bins))
		}
		for _, b := range bins {
			if exact[b.Value] != b.Count {
				t.Fatalf("%s: count for %v = %d, want %d", s.Name(), b.Value, b.Count, exact[b.Value])
			}
		}
	}
}

func TestMergeBins(t *testing.T) {
	a := []Bin[float32]{{1, 2}, {3, 1}}
	b := []Bin[float32]{{2, 5}, {3, 4}, {7, 1}}
	got := Merge(a, b)
	want := []Bin[float32]{{1, 2}, {2, 5}, {3, 5}, {7, 1}}
	if len(got) != len(want) {
		t.Fatalf("Merge = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Merge = %v, want %v", got, want)
		}
	}
	if Total(got) != Total(a)+Total(b) {
		t.Fatal("Merge lost mass")
	}
}

func TestMergeEmpty(t *testing.T) {
	a := []Bin[float32]{{1, 1}}
	if got := Merge(a, nil); len(got) != 1 || got[0] != a[0] {
		t.Fatalf("Merge with nil = %v", got)
	}
	if got := Merge[float32](nil, nil); len(got) != 0 {
		t.Fatalf("Merge(nil,nil) = %v", got)
	}
}

func TestStreamingEquiDepthBuckets(t *testing.T) {
	h := NewStreamingEquiDepth(10, 0.005, cpusort.QuicksortSorter[float32]{})
	h.ProcessSlice(stream.Uniform(100000, 7))
	buckets := h.Buckets()
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	var total int64
	for i, b := range buckets {
		total += b.Count
		// Uniform[0,1): bucket i spans roughly [i/10, (i+1)/10).
		wantHi := float32(i+1) / 10
		if b.Hi < wantHi-0.02 || b.Hi > wantHi+0.02 {
			t.Fatalf("bucket %d hi = %v, want ~%v", i, b.Hi, wantHi)
		}
		if b.Lo > b.Hi {
			t.Fatalf("bucket %d inverted: %+v", i, b)
		}
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count())
	}
}

func TestStreamingEquiDepthSelectivity(t *testing.T) {
	h := NewStreamingEquiDepth(20, 0.005, cpusort.QuicksortSorter[float32]{})
	h.ProcessSlice(stream.Uniform(100000, 8))
	for _, tt := range []float32{0.1, 0.33, 0.5, 0.9} {
		got := h.Selectivity(tt)
		if got < float64(tt)-0.07 || got > float64(tt)+0.07 {
			t.Fatalf("Selectivity(%v) = %v", tt, got)
		}
	}
	if got := h.Selectivity(-1); got != 0 {
		t.Fatalf("Selectivity below min = %v", got)
	}
	if got := h.Selectivity(2); got < 0.99 {
		t.Fatalf("Selectivity above max = %v", got)
	}
}

func TestStreamingEquiDepthSkewed(t *testing.T) {
	// On a skewed stream the buckets must narrow around the mass.
	h := NewStreamingEquiDepth(10, 0.005, cpusort.QuicksortSorter[float32]{})
	h.ProcessSlice(stream.Zipf(50000, 1.3, 1000, 9))
	buckets := h.Buckets()
	// Over half the mass of a Zipf(1.3) stream sits on the smallest few
	// items, so early buckets must be far narrower than late ones.
	if buckets[0].Hi-buckets[0].Lo >= buckets[9].Hi-buckets[9].Lo {
		t.Fatalf("skew not reflected: first %+v last %+v", buckets[0], buckets[9])
	}
}

func TestStreamingEquiDepthGPUMatchesCPU(t *testing.T) {
	data := stream.Gaussian(20000, 10, 3, 10)
	cpu := NewStreamingEquiDepth(8, 0.01, cpusort.QuicksortSorter[float32]{})
	gpu := NewStreamingEquiDepth(8, 0.01, gpusort.NewSorter[float32]())
	cpu.ProcessSlice(data)
	gpu.ProcessSlice(data)
	cb, gb := cpu.Buckets(), gpu.Buckets()
	for i := range cb {
		if cb[i] != gb[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, cb[i], gb[i])
		}
	}
}

func TestStreamingEquiDepthPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStreamingEquiDepth(0, 0.1, cpusort.QuicksortSorter[float32]{}) },
		func() { NewStreamingEquiDepth(4, 0.1, cpusort.QuicksortSorter[float32]{}).Buckets() },
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

// TestSignedZerosShareOneDeterministicBin pins what the key-radix window
// sort changed for floats: a window holding ±0 and ±Inf sorts to the same
// ==-sequence as slices.Sort, and AppendSorted still folds both zeros into
// one bin — whose value is now always -0, the first by key order, where the
// comparison sorts left it to the input order.
func TestSignedZerosShareOneDeterministicBin(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	inf := float32(math.Inf(1))
	vals := []float32{0, negZero, inf, -inf, 1, -1}
	for rot := 0; rot < len(vals); rot++ {
		win := make([]float32, 0, 600)
		for i := 0; i < 100; i++ {
			for j := range vals {
				win = append(win, vals[(j+rot+i*5)%len(vals)])
			}
		}
		want := slices.Clone(win)
		slices.Sort(want)
		samplesort.NewSorter[float32]().Sort(win)
		if !slices.Equal(win, want) {
			t.Fatalf("rotation %d: ==-sequence differs from slices.Sort", rot)
		}
		bins := AppendSorted(nil, win)
		if len(bins) != 5 {
			t.Fatalf("rotation %d: %d bins, want 5 (-Inf, -1, 0, 1, +Inf): %v", rot, len(bins), bins)
		}
		if z := bins[2]; z.Count != 200 || math.Float32bits(z.Value) != math.Float32bits(negZero) {
			t.Fatalf("rotation %d: zero bin = {%v (bits %#x), %d}, want {-0, 200}",
				rot, z.Value, math.Float32bits(z.Value), z.Count)
		}
	}
}
