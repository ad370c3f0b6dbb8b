package wire

import (
	"errors"
	"math"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	b := AppendHeader(nil, FamilyQuantile, TagUint64)
	if len(b) != HeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(b), HeaderSize)
	}
	fam, tag, err := ReadHeader(b)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if fam != FamilyQuantile || tag != TagUint64 {
		t.Fatalf("got (%v, %v)", fam, tag)
	}

	r := NewReader(b)
	r.Header(FamilyQuantile, TagUint64)
	if err := r.Finish(); err != nil {
		t.Fatalf("Reader.Header: %v", err)
	}
}

func TestHeaderErrors(t *testing.T) {
	good := AppendHeader(nil, FamilyFrequency, TagFloat32)

	if _, _, err := ReadHeader(good[:HeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, err := ReadHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	future := append([]byte(nil), good...)
	future[4] = 99
	if _, _, err := ReadHeader(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
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
		if r.U8() != 0 || r.U32() != 0 || r.I64() != 0 || r.F64() != 0 || r.Bytes(4) != nil ||
			ReadValue[float32](r) != 0 || ReadValue[uint64](r) != 0 || ReadValue[int64](r) != 0 {
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
