package half

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValuesRoundTrip(t *testing.T) {
	// Values exactly representable in binary16 must survive unchanged.
	exact := []float32{0, 1, -1, 0.5, 2, 1024, 65504, -65504, 0.25, 1.5,
		6.103515625e-05 /* smallest normal */, 5.960464477539063e-08 /* smallest subnormal */}
	for _, v := range exact {
		if got := FromFloat32(v).ToFloat32(); got != v {
			t.Fatalf("%v -> %v", v, got)
		}
	}
}

func TestSpecials(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := FromFloat32(inf).ToFloat32(); got != inf {
		t.Fatalf("+Inf -> %v", got)
	}
	if got := FromFloat32(-inf).ToFloat32(); got != -inf {
		t.Fatalf("-Inf -> %v", got)
	}
	nan := float32(math.NaN())
	if got := FromFloat32(nan).ToFloat32(); got == got {
		t.Fatalf("NaN -> %v (not NaN)", got)
	}
	// Overflow saturates to Inf.
	if got := FromFloat32(1e6).ToFloat32(); got != inf {
		t.Fatalf("overflow -> %v", got)
	}
	// Underflow flushes to signed zero.
	if got := FromFloat32(1e-9).ToFloat32(); got != 0 {
		t.Fatalf("underflow -> %v", got)
	}
	if got := FromFloat32(float32(math.Copysign(1e-9, -1))).ToFloat32(); got != 0 || !math.Signbit(float64(got)) {
		t.Fatalf("negative underflow -> %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	// Normal-range values round within half-precision epsilon.
	for _, v := range []float32{3.14159, -2.71828, 123.456, 0.001, 6000} {
		got := FromFloat32(v).ToFloat32()
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		if rel > Eps {
			t.Fatalf("%v -> %v, relative error %v > %v", v, got, rel, Eps)
		}
	}
}

func TestMonotone(t *testing.T) {
	prop := func(a, b float32) bool {
		if a != a || b != b {
			return true
		}
		if math.Abs(float64(a)) > 1e30 || math.Abs(float64(b)) > 1e30 {
			return true // both saturate; ordering of infinities is weaker
		}
		ha, hb := FromFloat32(a).ToFloat32(), FromFloat32(b).ToFloat32()
		if a <= b {
			return ha <= hb
		}
		return ha >= hb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIdempotent(t *testing.T) {
	prop := func(v float32) bool {
		if v != v {
			return true
		}
		once := FromFloat32(v).ToFloat32()
		twice := FromFloat32(once).ToFloat32()
		return once == twice
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 2049 is exactly between 2048 and 2050 in binary16; round-to-even
	// picks 2048.
	if got := FromFloat32(2049).ToFloat32(); got != 2048 {
		t.Fatalf("2049 -> %v, want 2048", got)
	}
	if got := FromFloat32(2051).ToFloat32(); got != 2052 {
		t.Fatalf("2051 -> %v, want 2052", got)
	}
}

func TestQuantizeSlice(t *testing.T) {
	data := []float32{1.0000001, 2.0000001, 3}
	Quantize(data)
	if data[0] != 1 || data[1] != 2 || data[2] != 3 {
		t.Fatalf("quantized = %v", data)
	}
}

func TestAllBitsRoundTripThroughFloat32(t *testing.T) {
	// Every one of the 65536 half values must convert to float32 and back
	// to the identical bit pattern (NaNs may canonicalize).
	for u := 0; u < 1<<16; u++ {
		h := Bits(u)
		f := h.ToFloat32()
		back := FromFloat32(f)
		if f != f { // NaN: only class must survive
			if bf := back.ToFloat32(); bf == bf {
				t.Fatalf("NaN bits %04x round-tripped to non-NaN", u)
			}
			continue
		}
		if back != h {
			t.Fatalf("bits %04x -> %v -> %04x", u, f, uint16(back))
		}
	}
}
