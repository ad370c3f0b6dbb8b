package cpusort

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// kernelShapes returns the input shapes of the kernel matrix, n values each.
// fromKey builds a T from an order-preserving key (NaNs it would produce are
// replaced by zero: the Value contract excludes them and slices.Sort is the
// reference).
func kernelShapes[T sorter.Value](n int, seed uint64) map[string][]T {
	bits := uint(sorter.KeyBits[T]())
	fromKey := func(k uint64) T {
		v := sorter.FromOrderedKey[T](k & (1<<bits - 1))
		if v != v {
			return 0
		}
		return v
	}
	rng := stream.NewRNG(seed)
	fill := func(fn func(i int) T) []T {
		out := make([]T, n)
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	base := rng.Uint64()
	extremes := []T{sorter.MinValue[T](), sorter.MaxValue[T](), 0, fromKey(1 << (bits - 1))}
	return map[string][]T{
		"sorted":    fill(func(i int) T { return T(i) }),
		"reversed":  fill(func(i int) T { return T(n - i) }),
		"all-equal": fill(func(int) T { return 42 }),
		"zipf":      stream.ZipfOf[T](n, 1.1, n/100+10, seed),
		"uniform":   fill(func(int) T { return fromKey(rng.Uint64()) }),
		"top-byte": fill(func(int) T {
			return fromKey(base&^(0xFF<<(bits-8)) | uint64(rng.Intn(256))<<(bits-8))
		}),
		"bottom-byte": fill(func(int) T { return fromKey(base&^0xFF | uint64(rng.Intn(256))) }),
		"extremes": fill(func(i int) T {
			if i%3 == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return fromKey(rng.Uint64())
		}),
	}
}

func kernelMatrix[T sorter.Value](t *testing.T) {
	var z T
	var r Radix[T]
	r.Sort(nil) // resolves the kind
	cut := r.minN()
	for _, n := range []int{0, 1, cut - 1, cut, 1000, 4000, StackKeys, StackKeys + 1, 40_000} {
		for shape, data := range kernelShapes[T](n, uint64(n)+7) {
			want := slices.Clone(data)
			slices.Sort(want)
			got := slices.Clone(data)
			passes := r.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%T n=%d %s: differs from slices.Sort", z, n, shape)
			}
			if max := sorter.KeyBits[T]() / 8; passes < 0 || passes > max || (n < cut && passes != 0) {
				t.Fatalf("%T n=%d %s: %d passes (cutoff %d, at most %d)", z, n, shape, passes, cut, max)
			}
			again := slices.Clone(data)
			if p2 := r.Sort(again); p2 != passes || !slices.Equal(again, got) {
				t.Fatalf("%T n=%d %s: second sort of the same input differs", z, n, shape)
			}
			oneShot := slices.Clone(data)
			new(Radix[T]).Sort(oneShot)
			if !slices.Equal(oneShot, got) {
				t.Fatalf("%T n=%d %s: a fresh Radix differs from a held one", z, n, shape)
			}
		}
	}
}

// TestRadixKernelMatrix checks the kernel against slices.Sort over all six
// value types, the window sizes either side of every tier boundary, and the
// input shapes that exercise pass skipping (all-equal, one varying byte).
func TestRadixKernelMatrix(t *testing.T) {
	t.Run("float32", kernelMatrix[float32])
	t.Run("float64", kernelMatrix[float64])
	t.Run("uint32", kernelMatrix[uint32])
	t.Run("uint64", kernelMatrix[uint64])
	t.Run("int32", kernelMatrix[int32])
	t.Run("int64", kernelMatrix[int64])
	type celsius float32 // a named type reaches the same loops
	t.Run("named", kernelMatrix[celsius])
}

// TestRadixPassSkipping pins the data-dependent pass count on inputs whose
// shared digits are known.
func TestRadixPassSkipping(t *testing.T) {
	const n = 5000
	var r Radix[uint64]
	for _, c := range []struct {
		name string
		gen  func(i int) uint64
		want int
	}{
		{"all-equal", func(int) uint64 { return 0xDEADBEEF }, 0},
		{"low-byte", func(i int) uint64 { return 0xAB00 | uint64(i%256) }, 1},
		{"two-bytes", func(i int) uint64 { return uint64(i) }, 2},
		{"top-and-bottom", func(i int) uint64 { return uint64(i%7)<<56 | uint64(i%256) }, 2},
		{"full-width", func(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }, 8},
	} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = c.gen(i)
		}
		if got := r.Sort(data); got != c.want || !IsSorted(data) {
			t.Errorf("%s: %d passes (want %d), sorted=%v", c.name, got, c.want, IsSorted(data))
		}
	}
}

func f32key(v float32) uint32 {
	b := math.Float32bits(v)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

// TestRadixFloatTotalOrder pins the order < leaves undefined: -0 before +0,
// NaNs with the sign bit set before -Inf, the others after +Inf — and that
// the bits come back exactly.
func TestRadixFloatTotalOrder(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	inf := float32(math.Inf(1))
	posNaN, negNaN := math.Float32frombits(0x7FC00001), math.Float32frombits(0xFFC00001)
	want := []float32{negNaN, -inf, -1, negZero, 0, 1, inf, posNaN}
	data := make([]float32, 0, 400)
	for i := 0; i < 50; i++ { // interleaved, well above the cutoff
		for j := range want {
			data = append(data, want[(j*3+i)%len(want)])
		}
	}
	new(Radix[float32]).Sort(data)
	for i, v := range data {
		if w := want[i/50]; math.Float32bits(v) != math.Float32bits(w) {
			t.Fatalf("position %d holds %v (bits %#x), want %v (bits %#x)",
				i, v, math.Float32bits(v), w, math.Float32bits(w))
		}
	}

	d64 := make([]float64, 0, 400)
	for i := 0; i < 100; i++ {
		d64 = append(d64, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1))
	}
	new(Radix[float64]).Sort(d64)
	for i, v := range d64 {
		w := []float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1)}[i/100]
		if math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("float64 position %d holds %v, want %v", i, v, w)
		}
	}
}

// TestRadixStackResidency is the rule live_heap_mb depends on: windows of at
// most StackKeys values allocate nothing and leave nothing behind; larger
// ones allocate once and then reuse.
func TestRadixStackResidency(t *testing.T) {
	check := func(name string, sortN func(n int) (allocs float64, retained int)) {
		for _, n := range []int{1000, 4000, StackKeys} {
			if a, ret := sortN(n); a != 0 || ret != 0 {
				t.Errorf("%s n=%d: %v allocs/sort, %d bytes retained; want 0 and 0", name, n, a, ret)
			}
		}
		if a, ret := sortN(40_000); a != 0 || ret == 0 {
			t.Errorf("%s n=40000: %v allocs/sort in steady state, %d bytes retained", name, a, ret)
		}
	}
	var r32 Radix[float32]
	check("float32", func(n int) (float64, int) {
		src, buf := stream.Uniform(n, 3), make([]float32, n)
		r32.Sort(slices.Clone(src)) // warm: sizes the retained buffers
		return testing.AllocsPerRun(10, func() { copy(buf, src); r32.Sort(buf) }), r32.Retained()
	})
	var r64 Radix[uint64]
	check("uint64", func(n int) (float64, int) {
		src, buf := stream.UniformU64(n, 3), make([]uint64, n)
		r64.Sort(slices.Clone(src))
		return testing.AllocsPerRun(10, func() { copy(buf, src); r64.Sort(buf) }), r64.Retained()
	})
}

// FuzzRadixSort reinterprets arbitrary bytes as float32 and as uint64
// windows and checks the kernel against a sort by key — bit for bit, NaN
// payloads included, from RadixMinN values up; by == with NaNs removed below
// it.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	for _, n := range []int{4 * RadixMinN, 16 * RadixMinN, 8 * (StackKeys + 1)} {
		seed := make([]byte, n)
		for i := 0; i+4 <= n; i += 4 {
			binary.LittleEndian.PutUint32(seed[i:], uint32(i)*2654435761)
		}
		f.Add(seed)
	}
	var r32 Radix[float32]
	var r64 Radix[uint64]
	f.Fuzz(func(t *testing.T, raw []byte) {
		f32 := make([]float32, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			f32 = append(f32, math.Float32frombits(binary.LittleEndian.Uint32(raw[i:])))
		}
		byKey := len(f32) >= RadixMinN
		if !byKey { // the comparison sort leaves NaN placement and the order of ±0 open
			f32 = slices.DeleteFunc(f32, func(v float32) bool { return v != v })
		}
		want32 := slices.Clone(f32)
		slices.SortFunc(want32, func(a, b float32) int { return cmp.Compare(f32key(a), f32key(b)) })
		r32.Sort(f32)
		for i := range f32 {
			if byKey && math.Float32bits(f32[i]) != math.Float32bits(want32[i]) || !byKey && f32[i] != want32[i] {
				t.Fatalf("float32 n=%d: position %d holds %#x, want %#x",
					len(f32), i, math.Float32bits(f32[i]), math.Float32bits(want32[i]))
			}
		}

		u64 := make([]uint64, len(raw)/8)
		for i := range u64 {
			u64[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		want64 := slices.Clone(u64)
		slices.Sort(want64)
		r64.Sort(u64)
		if !slices.Equal(u64, want64) {
			t.Fatalf("uint64 n=%d: differs from slices.Sort", len(u64))
		}
	})
}
