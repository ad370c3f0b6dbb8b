package gpusort

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"gpustream/internal/gpu"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

func TestFloatKeyRoundTrip(t *testing.T) {
	prop := func(bits uint32) bool {
		f := math.Float32frombits(bits)
		if f != f { // NaN has no defined order; skip
			return true
		}
		return sorter.FromOrderedKey[float32](sorter.OrderedKey(f)) == f
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatKeyMonotone(t *testing.T) {
	prop := func(a, b float32) bool {
		if a != a || b != b {
			return true
		}
		if a < b {
			return sorter.OrderedKey(a) < sorter.OrderedKey(b)
		}
		if a > b {
			return sorter.OrderedKey(a) > sorter.OrderedKey(b)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKthLargestAgainstSort(t *testing.T) {
	data := stream.Uniform(5000, 3)
	ref := append([]float32(nil), data...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] > ref[j] }) // descending
	for _, k := range []int{1, 2, 100, 2500, 4999, 5000} {
		if got := KthLargest(data, k); got != ref[k-1] {
			t.Fatalf("KthLargest(%d) = %v, want %v", k, got, ref[k-1])
		}
	}
}

func TestKthLargestDuplicatesAndNegatives(t *testing.T) {
	data := []float32{3, -1, 3, 0, -7, 3, 2, -1}
	ref := append([]float32(nil), data...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] > ref[j] })
	for k := 1; k <= len(data); k++ {
		if got := KthLargest(data, k); got != ref[k-1] {
			t.Fatalf("k=%d: got %v want %v (ref %v)", k, got, ref[k-1], ref)
		}
	}
}

func TestKthLargestQuick(t *testing.T) {
	prop := func(raw []int16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
		}
		k := int(kRaw)%len(data) + 1
		ref := append([]float32(nil), data...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] > ref[j] })
		return KthLargest(data, k) == ref[k-1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKthLargestStats(t *testing.T) {
	data := stream.Uniform(4096, 4)
	_, st := KthLargestWithStats(data, 100)
	// At most 32 counting passes over 4096 texels.
	if st.Passes == 0 || st.Passes > 33 {
		t.Fatalf("Passes = %d", st.Passes)
	}
	if st.Fragments != st.Passes*4096 {
		t.Fatalf("Fragments = %d for %d passes", st.Fragments, st.Passes)
	}
	if st.BytesUp == 0 {
		t.Fatal("upload not accounted")
	}
}

func TestKthLargestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { KthLargest([]float32{1, 2}, 0) },
		func() { KthLargest([]float32{1, 2}, 3) },
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

func TestCountGreaterDirect(t *testing.T) {
	tex := gpu.NewTexture[float32](2, 2)
	tex.LoadChannel(0, []float32{1, 2, 3, 4})
	tex.LoadChannel(1, []float32{5, 5, 5, 5})
	dev := gpu.NewDevice[float32](2, 2)
	dev.BindTexture(tex)
	c := dev.CountGreater(2.5)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("CountGreater = %v", c)
	}
}
