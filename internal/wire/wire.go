// Package wire defines the versioned binary snapshot format shared by every
// estimator family: a fixed 8-byte header (magic, format version, value-type
// tag, family tag) followed by a family-specific body of little-endian
// fixed-width fields. The format is the cross-process contract of the
// aggregation tree — a snapshot marshaled by one process is unmarshaled and
// merged by another — so it is endian-stable by construction (explicit
// little-endian encoding, never host order) and decoding is hardened against
// hostile input: every length field is validated against the remaining
// buffer before any allocation, and every failure is a wrapped sentinel
// error, never a panic. DESIGN.md section 12 specifies the layout and the
// versioning policy.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gpustream/internal/sorter"
)

// magic identifies a gpustream snapshot blob.
var magic = [4]byte{'G', 'S', 'N', 'P'}

// Version is the current format version. Decoders reject any other value:
// the format only changes by bumping it, and old readers must fail cleanly
// on new blobs rather than misparse them.
const Version = 1

// HeaderSize is the fixed header length: magic (4) + version (2) +
// value-type tag (1) + family tag (1).
const HeaderSize = 8

// Family tags a snapshot body with the estimator family that produced it.
type Family uint8

const (
	// FamilyFrequency is a whole-stream lossy-counting summary
	// (frequency.Snapshot), also produced by sharded frequency ingestion.
	FamilyFrequency Family = 1
	// FamilyQuantile is a whole-stream merged GK summary
	// (quantile.Snapshot), also produced by sharded quantile ingestion.
	FamilyQuantile Family = 2
	// FamilyWindowFrequency is a sliding-window pane-ring histogram
	// (window.FrequencySnapshot).
	FamilyWindowFrequency Family = 3
	// FamilyWindowQuantile is a sliding-window pane-ring of GK summaries
	// (window.QuantileSnapshot).
	FamilyWindowQuantile Family = 4
	// FamilyFrugal is a bank of frugal-streaming quantile trackers
	// (frugal.Snapshot), one or two words of state per target quantile.
	FamilyFrugal Family = 5
	// FamilyKeyed is a keyed estimation container (keyed.Snapshot): pooled
	// per-key frugal trackers, promoted per-key GK summaries, and the
	// lossy-counting key oracle, with a second value-type tag for the keys.
	FamilyKeyed Family = 6
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyFrequency:
		return "frequency"
	case FamilyQuantile:
		return "quantile"
	case FamilyWindowFrequency:
		return "sliding-frequency"
	case FamilyWindowQuantile:
		return "sliding-quantile"
	case FamilyFrugal:
		return "frugal"
	case FamilyKeyed:
		return "keyed"
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// Tag identifies the sorter.Value instantiation of a snapshot's values.
type Tag uint8

const (
	TagFloat32 Tag = 1
	TagFloat64 Tag = 2
	TagUint32  Tag = 3
	TagUint64  Tag = 4
	TagInt32   Tag = 5
	TagInt64   Tag = 6
)

// String implements fmt.Stringer.
func (t Tag) String() string {
	switch t {
	case TagFloat32:
		return "float32"
	case TagFloat64:
		return "float64"
	case TagUint32:
		return "uint32"
	case TagUint64:
		return "uint64"
	case TagInt32:
		return "int32"
	case TagInt64:
		return "int64"
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// Decoding sentinels. Every decode failure wraps exactly one of these, so
// callers can classify with errors.Is.
var (
	// ErrBadMagic means the buffer does not start with a snapshot header.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion means the header carries a format version this build does
	// not speak.
	ErrVersion = errors.New("wire: unsupported format version")
	// ErrValueType means the snapshot's value-type tag does not match the
	// requested instantiation.
	ErrValueType = errors.New("wire: value-type tag mismatch")
	// ErrFamily means the snapshot's family tag does not match the decoder
	// (or is unknown entirely).
	ErrFamily = errors.New("wire: unexpected family tag")
	// ErrTruncated means the buffer ended before the fields its header and
	// length fields promise — including overflowed length fields, which are
	// rejected before any allocation.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrCorrupt means the buffer parsed but violates a structural
	// invariant: trailing bytes, unsorted entries, or impossible rank
	// bounds.
	ErrCorrupt = errors.New("wire: corrupt input")
)

// TagOf reports the value-type tag of the instantiation T (sorter.WireTag).
func TagOf[T sorter.Value]() Tag { return Tag(sorter.WireTag[T]()) }

// AppendHeader appends the fixed snapshot header for the given family and
// value type.
func AppendHeader(b []byte, fam Family, tag Tag) []byte {
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	return append(b, byte(tag), byte(fam))
}

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendI64 appends a little-endian int64 (two's complement).
func AppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendF64 appends a little-endian IEEE-754 float64.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendValue appends v as its order-preserving integer key at T's native
// width (sorter.Width bytes). The key mapping is a bijection, so decoding
// recovers v bit-exactly.
func AppendValue[T sorter.Value](b []byte, v T) []byte {
	k := sorter.OrderedKey(v)
	if sorter.Width[T]() == 4 {
		return binary.LittleEndian.AppendUint32(b, uint32(k))
	}
	return binary.LittleEndian.AppendUint64(b, k)
}

// ReadHeader validates the magic and version of data and returns its family
// and value-type tags, so a dispatcher can route the buffer to the right
// family decoder before committing to a full parse.
func ReadHeader(data []byte) (Family, Tag, error) {
	if len(data) < HeaderSize {
		return 0, 0, fmt.Errorf("wire: %d-byte buffer shorter than %d-byte header: %w", len(data), HeaderSize, ErrTruncated)
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return 0, 0, fmt.Errorf("wire: magic %q: %w", data[:4], ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return 0, 0, fmt.Errorf("wire: format version %d, this build speaks %d: %w", v, Version, ErrVersion)
	}
	return Family(data[7]), Tag(data[6]), nil
}

// Reader decodes a snapshot buffer with bounds checking on every read. It is
// sticky: the first failure is kept, every read after it returns zero and
// consumes nothing, and Finish reports it — so a decoder is a straight list
// of fields and checks with one error test at the end. Running on after a
// failure is bounded by the input: every loop is sized by a Count, which is
// 0 once anything failed and was otherwise validated against the bytes left.
// A Reader never panics and never allocates based on an unvalidated length.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Remaining reports the undecoded bytes left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records err as the decode's failure unless an earlier one stands; a
// nil err is ignored. Family decoders report foreign errors (a nested
// decoder's) through it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Check records a wrapped ErrCorrupt when a structural invariant (sorted
// entries, possible ranks) does not hold — unless an earlier failure stands:
// a field zeroed by truncation fails its invariant too, and must report the
// truncation.
func (r *Reader) Check(ok bool, format string, args ...any) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

// take consumes n bytes; nil when this or an earlier read failed.
func (r *Reader) take(n int) []byte {
	if r.err == nil && r.Remaining() < n {
		r.err = fmt.Errorf("wire: need %d bytes at offset %d, have %d: %w", n, r.off, r.Remaining(), ErrTruncated)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Header consumes and validates the fixed header, requiring the given
// family and value type.
func (r *Reader) Header(fam Family, tag Tag) {
	f, tg, err := ReadHeader(r.buf[r.off:])
	r.Fail(err)
	r.take(HeaderSize)
	// Both mismatch errors spell out the raw tag byte: when debugging a
	// corrupt (or future-version) snapshot, "tag byte 0x07" distinguishes a
	// flipped bit from a family this build simply does not know yet.
	if tg != tag {
		r.Fail(fmt.Errorf("wire: snapshot carries %v values (tag byte 0x%02X), want %v: %w", tg, uint8(tg), tag, ErrValueType))
	}
	if f != fam {
		r.Fail(fmt.Errorf("wire: snapshot family %v (tag byte 0x%02X), want %v: %w", f, uint8(f), fam, ErrFamily))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// u64 reads a little-endian uint64.
func (r *Reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.u64()) }

// F64 reads a little-endian IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.u64()) }

// Count reads a uint32 element count and verifies that at least
// count*elemSize bytes remain, so an overflowed or hostile length field
// fails here — and reads as 0 — before the caller sizes any allocation by it.
func (r *Reader) Count(elemSize int) int {
	c := r.U32()
	if r.err == nil && int64(c)*int64(elemSize) > int64(r.Remaining()) {
		r.err = fmt.Errorf("wire: length field %d (%d bytes each) exceeds remaining %d bytes: %w", c, elemSize, r.Remaining(), ErrTruncated)
	}
	if r.err != nil {
		return 0
	}
	return int(c)
}

// Bytes consumes n bytes and returns them, aliasing the underlying buffer —
// the raw-slab accessor nested encodings (a family blob embedded inside
// another family's body) decode through. The caller must have validated n
// via Count or an explicit length check first.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Finish returns the first failure, or verifies the buffer was consumed
// exactly: trailing bytes mean the blob was not produced by this encoder and
// the parse cannot be trusted. Exact consumption also keeps the format
// canonical — decode then re-encode is the identity on bytes.
func (r *Reader) Finish() error {
	r.Check(r.Remaining() == 0, "wire: %d trailing bytes after snapshot body", r.Remaining())
	return r.err
}

// ReadValue reads one T encoded by AppendValue.
func ReadValue[T sorter.Value](r *Reader) (v T) {
	var k uint64
	if sorter.Width[T]() == 4 {
		k = uint64(r.U32())
	} else {
		k = r.u64()
	}
	if r.err != nil {
		return v // the zero T, which key 0 does not decode to
	}
	return sorter.FromOrderedKey[T](k)
}
