package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	b := AppendHeader(nil, FamilyQuantile, TagUint64)
	if len(b) != HeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(b), HeaderSize)
	}
	h, err := ReadHeader(b)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h != (Header{Version: Version, Family: FamilyQuantile, Tag: TagUint64}) {
		t.Fatalf("got %+v", h)
	}

	r := NewReader(b)
	r.Header(FamilyQuantile, TagUint64)
	if err := r.Finish(); err != nil || r.Version() != Version {
		t.Fatalf("Reader.Header: version %d, %v", r.Version(), err)
	}

	// Every version from MinVersion up still reads, and says which it is.
	for v := uint16(MinVersion); v <= Version; v++ {
		old := append([]byte(nil), b...)
		binary.LittleEndian.PutUint16(old[4:], v)
		if h, err := ReadHeader(old); err != nil || h.Version != v {
			t.Fatalf("version %d: %+v, %v", v, h, err)
		}
		r := NewReader(old)
		r.Header(FamilyQuantile, TagUint64)
		if err := r.Finish(); err != nil || r.Version() != v {
			t.Fatalf("Reader at version %d: read %d, %v", v, r.Version(), err)
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	good := AppendHeader(nil, FamilyFrequency, TagFloat32)

	if _, err := ReadHeader(good[:HeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ReadHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	for _, v := range []uint16{0, Version + 1, 99} {
		other := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(other[4:], v)
		if _, err := ReadHeader(other); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: %v", v, err)
		}
	}
	r := NewReader(good)
	r.Header(FamilyFrequency, TagUint64)
	if err := r.Finish(); !errors.Is(err, ErrValueType) {
		t.Fatalf("tag mismatch: %v", err)
	}
	r = NewReader(good)
	r.Header(FamilyQuantile, TagFloat32)
	if err := r.Finish(); !errors.Is(err, ErrFamily) {
		t.Fatalf("family mismatch: %v", err)
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	b := AppendU8(nil, 7)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendI64(b, -42)
	b = AppendF64(b, -0.125)

	r := NewReader(b)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); v != -0.125 {
		t.Fatalf("F64 = %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if v, err := r.U8(), r.Finish(); v != 0 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("read past end: %d, %v", v, err)
	}
}

func TestValueRoundTripBitExact(t *testing.T) {
	check := func(t *testing.T, enc []byte, wantSize int) {
		t.Helper()
		if len(enc) != wantSize {
			t.Fatalf("encoded %d bytes, want %d", len(enc), wantSize)
		}
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), -1.5, 3.4e38, -3.4e38, float32(math.Inf(1)), float32(math.Inf(-1))} {
		enc := AppendValue(nil, v)
		check(t, enc, 4)
		r := NewReader(enc)
		got := ReadValue[float32](r)
		if err := r.Finish(); err != nil || math.Float32bits(got) != math.Float32bits(v) {
			t.Fatalf("float32 %v -> %v, %v", v, got, err)
		}
	}
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 63} {
		enc := AppendValue(nil, v)
		check(t, enc, 8)
		r := NewReader(enc)
		got := ReadValue[uint64](r)
		if err := r.Finish(); err != nil || got != v {
			t.Fatalf("uint64 %d -> %d, %v", v, got, err)
		}
	}
	for _, v := range []int32{math.MinInt32, -1, 0, math.MaxInt32} {
		enc := AppendValue(nil, v)
		check(t, enc, 4)
		r := NewReader(enc)
		got := ReadValue[int32](r)
		if err := r.Finish(); err != nil || got != v {
			t.Fatalf("int32 %d -> %d, %v", v, got, err)
		}
	}
}

func TestCountRejectsOverflowedLength(t *testing.T) {
	for name, tc := range map[string]struct {
		data     []byte
		elemSize int
	}{
		"count·elemSize past the buffer": {append(AppendU32(nil, 3), make([]byte, 2*24)...), 24},
		"count·elemSize past 2^32":       {append(AppendU32(nil, math.MaxUint32), make([]byte, 64)...), 24},
		"count of single bytes":          {append(AppendU32(nil, 9), make([]byte, 8)...), 1},
	} {
		r := NewReader(tc.data)
		if c, err := r.Count(tc.elemSize), r.Finish(); c != 0 || !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: Count = %d, %v; want 0 and ErrTruncated", name, c, err)
		}
	}
	// A count that fits is returned, and a zero count needs no bytes at all.
	r := NewReader(append(AppendU32(nil, 2), make([]byte, 2*24)...))
	if c := r.Count(24); c != 2 || r.Remaining() != 2*24 {
		t.Fatalf("fitting count: %d with %d bytes left", c, r.Remaining())
	}
	r = NewReader(AppendU32(nil, 0))
	if c, err := r.Count(24), r.Finish(); err != nil || c != 0 {
		t.Fatalf("zero count: %d, %v", c, err)
	}
}

// TestReaderFirstFailureWins pins the sticky contract: the first failure is
// the one Finish reports, whatever fails after it.
func TestReaderFirstFailureWins(t *testing.T) {
	// A truncated field reads as zero, so the invariant over it fails too;
	// the decode must still report the truncation.
	r := NewReader([]byte{1, 2})
	n := r.U32()
	r.Check(n > 0, "test: count %d not positive", n)
	r.Fail(errors.New("foreign"))
	if err := r.Finish(); n != 0 || !errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation then Check(false): %d, %v", n, err)
	}

	r = NewReader(AppendU32(nil, 7))
	r.Check(r.U32() == 8, "test: want 8")
	r.U8() // past the end, but after the corruption
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || err.Error() != "test: want 8: "+ErrCorrupt.Error() {
		t.Fatalf("Check(false) then truncation: %v", err)
	}

	foreign := errors.New("foreign")
	r = NewReader(nil)
	r.Fail(nil) // no failure: ignored
	r.Check(true, "test: holds")
	r.Fail(foreign)
	r.Check(false, "test: after Fail")
	if err := r.Finish(); err != foreign {
		t.Fatalf("Fail then Check(false): %v", err)
	}
}

// TestReaderReadsZeroAfterFailure: once anything has failed, every read
// returns zero and consumes nothing — Count included, so no loop or
// allocation is sized from a field read after the failure.
func TestReaderReadsZeroAfterFailure(t *testing.T) {
	body := AppendU32(nil, 1) // a valid one-element count, were it ever read
	for i := 0; i < 40; i++ {
		body = append(body, 0xFF)
	}
	fail := map[string]func(r *Reader){
		"truncation": func(r *Reader) { r.Bytes(len(body) + 1) },
		"corruption": func(r *Reader) { r.Check(false, "test: corrupt") },
		"bad header": func(r *Reader) { r.Header(FamilyFrequency, TagFloat32) },
	}
	for name, failNow := range fail {
		r := NewReader(body)
		failNow(r)
		first, left := r.Finish(), r.Remaining()
		if first == nil || left != len(body) {
			t.Fatalf("%s: failure %v consumed %d bytes", name, first, len(body)-left)
		}
		if c := r.Count(1); c != 0 {
			t.Fatalf("%s: Count = %d after the failure", name, c)
		}
		r.Header(FamilyQuantile, TagUint64)
		var vd ValueDeltas[uint32]
		if r.U8() != 0 || r.U32() != 0 || r.I64() != 0 || r.F64() != 0 || r.Bytes(4) != nil ||
			ReadValue[float32](r) != 0 || ReadValue[uint64](r) != 0 || ReadValue[int64](r) != 0 ||
			r.uvarint() != 0 || r.Varint() != 0 || vd.Read(r) != 0 {
			t.Fatalf("%s: a read after the failure returned non-zero", name)
		}
		if r.Remaining() != left {
			t.Fatalf("%s: reads after the failure consumed %d bytes", name, left-r.Remaining())
		}
		if err := r.Finish(); err != first {
			t.Fatalf("%s: Finish = %v, first failure was %v", name, err, first)
		}
	}
}

// TestFinishTrailingBytes: trailing bytes are a corruption of an otherwise
// clean decode only — they never replace an earlier failure.
func TestFinishTrailingBytes(t *testing.T) {
	data := append(AppendU32(nil, 5), 0, 0, 0)
	r := NewReader(data)
	r.U32()
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("3 trailing bytes: %v", err)
	}
	r = NewReader(data)
	r.I64() // 7 bytes: truncated, and all 7 are still unread
	if err := r.Finish(); !errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated read with bytes left: %v", err)
	}
}

func TestTagOf(t *testing.T) {
	if got := TagOf[float32](); got != TagFloat32 {
		t.Fatalf("float32 tag %v", got)
	}
	if got := TagOf[uint64](); got != TagUint64 {
		t.Fatalf("uint64 tag %v", got)
	}
	if got := TagOf[int64](); got != TagInt64 {
		t.Fatalf("int64 tag %v", got)
	}
}

// TestUvarintStrict pins the varint reader: every minimal encoding (the one
// binary.AppendUvarint writes) reads back; an overlong encoding, a varint
// past 64 bits and an 11-byte varint are corrupt; a buffer that ends inside
// a varint is truncated.
func TestUvarintStrict(t *testing.T) {
	for _, u := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, u)
		r := NewReader(enc)
		if got, err := r.uvarint(), r.Finish(); got != u || err != nil {
			t.Fatalf("%d: read %d, %v", u, got, err)
		}
	}
	for _, v := range []int64{0, -1, 1, -64, 63, -65, 64, math.MinInt64, math.MaxInt64} {
		enc := AppendVarint(nil, v)
		r := NewReader(enc)
		if got, err := r.Varint(), r.Finish(); got != v || err != nil {
			t.Fatalf("%d: read %d, %v", v, got, err)
		}
	}
	if len(AppendVarint(nil, -64)) != 1 || len(AppendVarint(nil, 64)) != 2 {
		t.Fatal("zigzag must keep small differences of either sign in one byte")
	}

	ten := bytes.Repeat([]byte{0xFF}, 9)
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"empty":                   {nil, ErrTruncated},
		"ends after a 0x80":       {[]byte{0x80}, ErrTruncated},
		"ends inside nine bytes":  {ten, ErrTruncated},
		"overlong zero":           {[]byte{0x80, 0x00}, ErrCorrupt},
		"overlong 127":            {[]byte{0xFF, 0x80, 0x00}, ErrCorrupt},
		"tenth byte past 64 bits": {append(append([]byte(nil), ten...), 0x02), ErrCorrupt},
		"11-byte varint":          {append(append([]byte(nil), ten...), 0x80, 0x01), ErrCorrupt},
	} {
		r := NewReader(tc.data)
		if got, err := r.uvarint(), r.Finish(); got != 0 || !errors.Is(err, tc.want) || r.Remaining() != len(tc.data) {
			t.Fatalf("%s: read %d with %d bytes left, %v; want 0, nothing consumed and %v", name, got, r.Remaining(), err, tc.want)
		}
	}
	// The largest ten-byte varint is legal.
	r := NewReader(append(append([]byte(nil), ten...), 0x01))
	if got, err := r.uvarint(), r.Finish(); got != math.MaxUint64 || err != nil {
		t.Fatalf("MaxUint64: %d, %v", got, err)
	}
}

// TestValueDeltas: a list of values, sorted or not, extremes included,
// round-trips bit for bit through the key-delta code at both key widths; an
// ascending list of near neighbours costs a byte a value; and a code wider
// than a 32-bit key is corrupt, not wrapped.
func TestValueDeltas(t *testing.T) {
	roundTrip := func(t *testing.T, n int, enc []byte, read func(r *Reader, i int)) {
		t.Helper()
		r := NewReader(enc)
		for i := 0; i < n; i++ {
			read(r, i)
		}
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	f32 := []float32{float32(math.Inf(-1)), -3.4e38, -1, float32(math.Copysign(0, -1)), 0, 1, 3.4e38, float32(math.Inf(1)), -1, 0, float32(math.NaN())}
	var ef ValueDeltas[float32]
	var enc []byte
	for _, v := range f32 {
		enc = ef.Append(enc, v)
	}
	var df ValueDeltas[float32]
	roundTrip(t, len(f32), enc, func(r *Reader, i int) {
		if got := df.Read(r); math.Float32bits(got) != math.Float32bits(f32[i]) {
			t.Fatalf("float32 %d: %v, want %v", i, got, f32[i])
		}
	})

	u64 := []uint64{0, math.MaxUint64, 1, 1 << 63, 1<<63 - 1, 5, 4}
	var eu, du ValueDeltas[uint64]
	enc = nil
	for _, v := range u64 {
		enc = eu.Append(enc, v)
	}
	roundTrip(t, len(u64), enc, func(r *Reader, i int) {
		if got := du.Read(r); got != u64[i] {
			t.Fatalf("uint64 %d: %d, want %d", i, got, u64[i])
		}
	})

	var ei ValueDeltas[int32]
	enc = nil
	for v := int32(-100); v < 100; v++ {
		enc = ei.Append(enc, v)
	}
	// The first delta is from key 0, which int32 -100 is ~2^31 above.
	if len(enc) != 5+199 {
		t.Fatalf("200 ascending neighbours took %d bytes, want %d", len(enc), 5+199)
	}

	var d32 ValueDeltas[uint32]
	r := NewReader(binary.AppendUvarint(nil, 1<<32))
	if got, err := d32.Read(r), r.Finish(); got != 0 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("code 2^32 at a 32-bit key: %d, %v", got, err)
	}
	var d64 ValueDeltas[uint64]
	r = NewReader(binary.AppendUvarint(nil, 1<<32))
	if got, err := d64.Read(r), r.Finish(); got != 1<<31 || err != nil {
		t.Fatalf("code 2^32 at a 64-bit key: %d, %v", got, err)
	}
}

// FuzzUvarint holds the strict varint reader to encoding/binary on arbitrary
// bytes: a varint it accepts is the one binary.Uvarint reads and is the
// minimal encoding of its value (re-encoding gives back the bytes read); a
// failure wraps ErrTruncated exactly when the buffer ended inside what could
// still be a varint and ErrCorrupt otherwise, and consumes nothing.
func FuzzUvarint(f *testing.F) {
	for _, seed := range [][]byte{
		nil, {0}, {0x7F}, {0x80, 0x01}, {0x80, 0x00}, {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		{0xFF, 0xFF, 0xFF, 0xFF, 0x10}, append(bytes.Repeat([]byte{0xFF}, 9), 0x01),
		append(bytes.Repeat([]byte{0xFF}, 9), 0x02), bytes.Repeat([]byte{0x80}, 11),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for r.Remaining() > 0 {
			off := len(data) - r.Remaining()
			got := r.uvarint()
			want, n := binary.Uvarint(data[off:])
			if r.err != nil {
				if got != 0 || r.Remaining() != len(data)-off {
					t.Fatalf("failed read at %d returned %d and consumed %d bytes", off, got, len(data)-off-r.Remaining())
				}
				// binary.Uvarint also reports ten continuation bytes as too
				// short; no varint can have them, so they are corrupt here.
				short := n == 0 && len(data)-off < binary.MaxVarintLen64
				if truncated := errors.Is(r.err, ErrTruncated); truncated != short || !truncated && !errors.Is(r.err, ErrCorrupt) {
					t.Fatalf("at %d: %v, binary.Uvarint read %d bytes", off, r.err, n)
				}
				return
			}
			if n <= 0 || got != want {
				t.Fatalf("at %d: accepted %d, binary.Uvarint says (%d, %d)", off, got, want, n)
			}
			if enc := binary.AppendUvarint(nil, got); !bytes.Equal(enc, data[off:off+n]) {
				t.Fatalf("at %d: accepted % x, the minimal encoding of %d is % x", off, data[off:off+n], got, enc)
			}
		}
	})
}
