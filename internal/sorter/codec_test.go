package sorter

import (
	"math"
	"reflect"
	"strconv"
	"testing"
)

// celsius is a type defined over a Value type: it must reach the same codec
// as float32.
type celsius float32

// The reflect-based codec that codec.go replaced, kept as the reference the
// tests below compare it with. It widens a float32 through float64, which
// sets the quiet bit of a signaling NaN; the codec keeps every bit, so the
// comparisons skip float32 signaling NaNs (refQuiets) and the round trips
// cover them.

func refMaxValue[T Value]() T {
	var z T
	v := reflect.ValueOf(&z).Elem()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Inf(1))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64) // SetUint truncates to the field width
	case reflect.Int32:
		v.SetInt(math.MaxInt32)
	case reflect.Int64:
		v.SetInt(math.MaxInt64)
	}
	return z
}

func refMinValue[T Value]() T {
	var z T
	v := reflect.ValueOf(&z).Elem()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Inf(-1))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(0)
	case reflect.Int32:
		v.SetInt(math.MinInt32)
	case reflect.Int64:
		v.SetInt(math.MinInt64)
	}
	return z
}

func refKeyBits[T Value]() int {
	var z T
	switch reflect.ValueOf(&z).Elem().Kind() {
	case reflect.Float32, reflect.Uint32, reflect.Int32:
		return 32
	}
	return 64
}

func refOrderedKey[T Value](v T) uint64 {
	rv := reflect.ValueOf(&v).Elem()
	switch rv.Kind() {
	case reflect.Float32:
		b := math.Float32bits(float32(rv.Float()))
		if b&0x80000000 != 0 {
			b = ^b
		} else {
			b |= 0x80000000
		}
		return uint64(b)
	case reflect.Float64:
		b := math.Float64bits(rv.Float())
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		return b
	case reflect.Uint32, reflect.Uint64:
		return rv.Uint()
	case reflect.Int32:
		return uint64(uint32(int32(rv.Int())) ^ 0x80000000)
	default: // Int64
		return uint64(rv.Int()) ^ (1 << 63)
	}
}

func refFromOrderedKey[T Value](k uint64) T {
	var z T
	rv := reflect.ValueOf(&z).Elem()
	switch rv.Kind() {
	case reflect.Float32:
		b := uint32(k)
		if b&0x80000000 != 0 {
			b &^= 0x80000000
		} else {
			b = ^b
		}
		rv.SetFloat(float64(math.Float32frombits(b)))
	case reflect.Float64:
		if k&(1<<63) != 0 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		rv.SetFloat(math.Float64frombits(k))
	case reflect.Uint32, reflect.Uint64:
		rv.SetUint(k)
	case reflect.Int32:
		rv.SetInt(int64(int32(uint32(k) ^ 0x80000000)))
	default: // Int64
		rv.SetInt(int64(k ^ (1 << 63)))
	}
	return z
}

// refWireTag is the switch the snapshot header's value-type tag came from.
func refWireTag[T Value]() uint8 {
	var z T
	switch reflect.ValueOf(&z).Elem().Kind() {
	case reflect.Float32:
		return 1
	case reflect.Float64:
		return 2
	case reflect.Uint32:
		return 3
	case reflect.Uint64:
		return 4
	case reflect.Int32:
		return 5
	default: // Int64
		return 6
	}
}

// refParse is the daemon's literal parser that Parse replaced, keyed by
// reflect so that it also takes a defined type.
func refParse[T Value](s string) (T, error) {
	var z T
	switch reflect.ValueOf(&z).Elem().Kind() {
	case reflect.Float32:
		f, err := strconv.ParseFloat(s, 32)
		return T(f), err
	case reflect.Float64:
		f, err := strconv.ParseFloat(s, 64)
		return T(f), err
	case reflect.Uint32:
		u, err := strconv.ParseUint(s, 10, 32)
		return T(u), err
	case reflect.Uint64:
		u, err := strconv.ParseUint(s, 10, 64)
		return T(u), err
	case reflect.Int32:
		i, err := strconv.ParseInt(s, 10, 32)
		return T(i), err
	default: // Int64
		i, err := strconv.ParseInt(s, 10, 64)
		return T(i), err
	}
}

// refQuiets reports whether v is a float32 signaling NaN, whose bits the
// reference changes.
func refQuiets[T Value](v T) bool {
	return refKeyBits[T]() == 32 && v != v && Bits(v)&0x00400000 == 0
}

// ladder returns values of T strictly ascending in the radix's documented
// total order: -NaN < -Inf < -max < -1 < -min subnormal < -0 < +0 < … <
// +Inf < +NaN for the floats, built from math's constants; the minimum, its
// successor, -1 (signed only), 0, 1, the maximum's predecessor and the
// maximum for the integers.
func ladder[T Value]() []T {
	var z T
	switch kind := reflect.ValueOf(z).Kind(); kind {
	case reflect.Float32, reflect.Float64:
		big, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
		if kind == reflect.Float32 {
			big, tiny = math.MaxFloat32, math.SmallestNonzeroFloat32
		}
		neg := func(x float64) float64 { return math.Copysign(x, -1) }
		nan, inf := math.NaN(), math.Inf(1)
		xs := []float64{neg(nan), -inf, -big, -1, -tiny, neg(0), 0, tiny, 1, big, inf, nan}
		out := make([]T, len(xs))
		for i, x := range xs {
			out[i] = T(x)
		}
		return out
	}
	lo, hi := refMinValue[T](), refMaxValue[T]()
	if lo == 0 {
		return []T{0, 1, hi - 1, hi}
	}
	return []T{lo, lo + 1, z - 1, 0, 1, hi - 1, hi}
}

// TestCodec checks the codec over all six types and a defined type: keys
// follow the radix's total order with the type's extremes at the ends; key
// and bits round-trip bit for bit; and keys, extremes, widths, wire tags and
// parses are the reflect reference's.
func TestCodec(t *testing.T) {
	t.Run("float32", testCodec[float32])
	t.Run("float64", testCodec[float64])
	t.Run("uint32", testCodec[uint32])
	t.Run("uint64", testCodec[uint64])
	t.Run("int32", testCodec[int32])
	t.Run("int64", testCodec[int64])
	t.Run("celsius", testCodec[celsius])
}

func testCodec[T Value](t *testing.T) {
	l := ladder[T]()
	for i, v := range l {
		k := OrderedKey(v)
		if i > 0 && OrderedKey(l[i-1]) >= k {
			t.Errorf("rung %d: key(%v) = %#x, not above key(%v) = %#x", i, v, k, l[i-1], OrderedKey(l[i-1]))
		}
		if want := refOrderedKey(v); k != want {
			t.Errorf("key(%v) = %#x, reference %#x", v, k, want)
		}
		if back := FromOrderedKey[T](k); Bits(back) != Bits(v) {
			t.Errorf("FromOrderedKey(key(%v)) = %v (bits %#x), want bits %#x", v, back, Bits(back), Bits(v))
		}
		if back := refFromOrderedKey[T](k); Bits(back) != Bits(v) {
			t.Errorf("reference decodes key(%v) to %v (bits %#x)", v, back, Bits(back))
		}
		if back := FromBits[T](Bits(v)); Bits(back) != Bits(v) {
			t.Errorf("FromBits(Bits(%v)) = %v", v, back)
		}
	}

	lo, hi := l[0], l[len(l)-1]
	if KindOf[T]() == Float {
		lo, hi = l[1], l[len(l)-2] // ±Inf, inside the NaNs
		if ExpMask[T]() != Bits(hi) {
			t.Errorf("ExpMask = %#x, want the bits of +Inf %#x", ExpMask[T](), Bits(hi))
		}
	} else if ExpMask[T]() != 0 {
		t.Errorf("integer ExpMask = %#x, want 0", ExpMask[T]())
	}
	if MinValue[T]() != lo || MaxValue[T]() != hi || MinValue[T]() != refMinValue[T]() || MaxValue[T]() != refMaxValue[T]() {
		t.Errorf("MinValue, MaxValue = %v, %v; want %v, %v (reference %v, %v)",
			MinValue[T](), MaxValue[T](), lo, hi, refMinValue[T](), refMaxValue[T]())
	}
	if KeyBits[T]() != refKeyBits[T]() || 8*Width[T]() != KeyBits[T]() {
		t.Errorf("KeyBits = %d, Width = %d; reference KeyBits %d", KeyBits[T](), Width[T](), refKeyBits[T]())
	}
	if WireTag[T]() != refWireTag[T]() {
		t.Errorf("WireTag = %d, reference %d", WireTag[T](), refWireTag[T]())
	}

	for _, s := range []string{"0", "1", "-1", "1.5", "1e2", "-0", "NaN", "Inf", "", "x",
		"2147483647", "2147483648", "-2147483649", "4294967296", "9007199254740993",
		"18446744073709551615", "18446744073709551616", "-9223372036854775809", "3.4028236e38", "1e400"} {
		got, err := Parse[T](s)
		want, wantErr := refParse[T](s)
		if (err == nil) != (wantErr == nil) || Bits(got) != Bits(want) {
			t.Errorf("Parse(%q) = %v, %v; reference %v, %v", s, got, err, want, wantErr)
		}
	}
}

// FuzzOrderedKey is the differential: two arbitrary 64-bit patterns, read as
// each type at its width, must get the reference's keys and decodes, round
// trip bit for bit, and order by key as they order by <.
func FuzzOrderedKey(f *testing.F) {
	for _, seed := range []uint64{0, 1, 1 << 31, 1<<31 - 1, 1 << 63, 1<<63 - 1, math.MaxUint64,
		0x7f800000, 0xff800000, 0x7f800001, 0xffc00001, 0x7ff0000000000000, 0xfff0000000000001} {
		f.Add(seed, ^seed)
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		fuzzCodec(t, a, b, func(u uint64) float32 { return math.Float32frombits(uint32(u)) })
		fuzzCodec(t, a, b, math.Float64frombits)
		fuzzCodec(t, a, b, func(u uint64) uint32 { return uint32(u) })
		fuzzCodec(t, a, b, func(u uint64) uint64 { return u })
		fuzzCodec(t, a, b, func(u uint64) int32 { return int32(u) })
		fuzzCodec(t, a, b, func(u uint64) int64 { return int64(u) })
		fuzzCodec(t, a, b, func(u uint64) celsius { return celsius(math.Float32frombits(uint32(u))) })
	})
}

func fuzzCodec[T Value](t *testing.T, a, b uint64, from func(uint64) T) {
	t.Helper()
	ones := uint64(1)<<(refKeyBits[T]()-1)<<1 - 1 // all ones at T's width
	va, vb := from(a), from(b)
	if Bits(va) != a&ones || Bits(FromBits[T](a)) != a&ones {
		t.Fatalf("%T %#x: Bits = %#x, Bits(FromBits) = %#x", va, a&ones, Bits(va), Bits(FromBits[T](a)))
	}
	ka, kb := OrderedKey(va), OrderedKey(vb)
	if want := refOrderedKey(va); !refQuiets(va) && ka != want {
		t.Fatalf("%T bits %#x: key %#x, reference %#x", va, a&ones, ka, want)
	}
	got, want := FromOrderedKey[T](a), refFromOrderedKey[T](a)
	if !refQuiets(got) && Bits(got) != Bits(want) {
		t.Fatalf("%T key %#x: decodes to bits %#x, reference %#x", va, a, Bits(got), Bits(want))
	}
	if Bits(FromOrderedKey[T](ka)) != a&ones || OrderedKey(got) != a&ones {
		t.Fatalf("%T %#x: key round trip lost bits", va, a&ones)
	}
	if va < vb && ka >= kb || vb < va && kb >= ka {
		t.Fatalf("%T: %v, %v order differently by key (%#x, %#x)", va, va, vb, ka, kb)
	}
}
