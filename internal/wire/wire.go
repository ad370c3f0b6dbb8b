// Package wire defines the versioned binary snapshot format shared by every
// estimator family: a fixed 8-byte header (magic, format version, value-type
// tag, family tag) followed by a family-specific body: little-endian
// fixed-width header and count fields, and (since version 2) each repeated
// summary, frequency or bin record as zigzag varints of its difference from
// a fixed predictor. The format is the cross-process contract of the
// aggregation tree — a snapshot marshaled by one process is unmarshaled and
// merged by another — so it is endian-stable by construction (explicit
// little-endian encoding, never host order) and decoding is hardened against
// hostile input: every length field is validated against the remaining
// buffer before any allocation (so a hostile count makes a decoder allocate
// at most ~8 bytes per input byte before it fails: MinRecord), varints must
// be minimal, and every failure is a wrapped sentinel error, never a panic.
// DESIGN.md section 12 specifies the layout and the versioning policy.
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

// Version is the format version this build writes. Decoders read every
// version from MinVersion to Version and reject any other: the format only
// changes by bumping it, and old readers must fail cleanly on new blobs
// rather than misparse them. Version 1 wrote every record as fixed-width
// fields; version 2 writes summary, frequency and bin records as varint
// deltas. Version 3 has version 2's layout and guarantees that every
// summary's rank bounds are non-decreasing: a decoder orders an older
// summary's, and rejects a version-3 one whose bounds are out of order.
const Version = 3

// MinVersion is the oldest format version this build still reads.
const MinVersion = 1

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
// value type, at format Version.
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

// AppendVarint appends v zigzag-mapped (0, -1, 1, -2, … → 0, 1, 2, 3, …)
// as a minimal unsigned LEB128 varint (seven bits a byte, low bits first,
// the high bit set on every byte but the last), so a small difference of
// either sign takes one byte.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// ValueDeltas is the value predictor of a record list since version 2:
// each value is written as the zigzag uvarint of its order-preserving key
// minus the previous record's key (0 before the first), wrapping at T's key
// width. The wrap makes the code a bijection on T's key space, so any list
// — sorted or not — round-trips, and a decoder checks the order it needs
// afterwards.
// One ValueDeltas walks one list; its zero value starts the list.
type ValueDeltas[T sorter.Value] struct{ prev uint64 }

// keyShift is 64 minus T's key width in bits: shifted left by it, key
// arithmetic wraps at the key width, and shifted back right it is
// sign-extended (arithmetic) or truncated (logical) to that width.
func keyShift[T sorter.Value]() uint { return uint(64 - sorter.KeyBits[T]()) }

// Append appends v's delta code to b and advances the predictor to v.
func (d *ValueDeltas[T]) Append(b []byte, v T) []byte {
	k, s := sorter.OrderedKey(v), keyShift[T]()
	x := int64((k-d.prev)<<s) >> s // the difference, wrapped at the key width
	d.prev = k
	return AppendVarint(b, x)
}

// Read reads one value Append wrote, or in a version-1 blob the fixed-width
// key AppendValue wrote. A code wider than T's key (possible
// only for a 4-byte type) is corrupt: it has no value to decode to, and
// accepting it would give one value two encodings.
func (d *ValueDeltas[T]) Read(r *Reader) (v T) {
	if r.version == 1 {
		return ReadValue[T](r) // version 1 had no predictor
	}
	u, s := r.uvarint(), keyShift[T]()
	if u>>(64-s) != 0 {
		r.Check(false, "wire: value delta code %#x wider than 32-bit keys", u)
	}
	if r.err != nil {
		return v // the zero T, as every read after a failure
	}
	d.prev = (d.prev + uint64(int64(u>>1)^-int64(u&1))) << s >> s
	return sorter.FromOrderedKey[T](d.prev)
}

// Header is a snapshot blob's fixed header.
type Header struct {
	Version uint16
	Family  Family
	Tag     Tag
}

// ReadHeader validates the magic and version of data and returns its
// header, so a dispatcher can route the buffer to the right family decoder
// before committing to a full parse.
func ReadHeader(data []byte) (Header, error) {
	if len(data) < HeaderSize {
		return Header{}, fmt.Errorf("wire: %d-byte buffer shorter than %d-byte header: %w", len(data), HeaderSize, ErrTruncated)
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return Header{}, fmt.Errorf("wire: magic %q: %w", data[:4], ErrBadMagic)
	}
	v := binary.LittleEndian.Uint16(data[4:6])
	if v < MinVersion || v > Version {
		return Header{}, fmt.Errorf("wire: format version %d, this build reads %d to %d: %w", v, MinVersion, Version, ErrVersion)
	}
	return Header{Version: v, Family: Family(data[7]), Tag: Tag(data[6])}, nil
}

// Reader decodes a snapshot buffer with bounds checking on every read. It is
// sticky: the first failure is kept, every read after it returns zero and
// consumes nothing, and Finish reports it — so a decoder is a straight list
// of fields and checks with one error test at the end. Running on after a
// failure is bounded by the input: every loop is sized by a Count, which is
// 0 once anything failed and was otherwise validated against the bytes left.
// A Reader never panics and never allocates based on an unvalidated length.
type Reader struct {
	buf     []byte
	off     int
	err     error
	version uint16
}

// NewReader returns a Reader over data. Until Header reads a blob's own
// version, the Reader decodes the layout of the current Version.
func NewReader(data []byte) *Reader { return &Reader{buf: data, version: Version} }

// Version reports the format version of the blob being decoded: the one
// Header read, or Version before that. ValueDeltas.Read, Int and MinRecord
// follow it, so a record loop reads either version without branching.
func (r *Reader) Version() uint16 { return r.version }

// Remaining reports the undecoded bytes left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failed reports whether a read or check has failed. A record loop stops
// there: every read after it is zero, so each record left would fail its
// checks again and format a message Check then discards.
func (r *Reader) Failed() bool { return r.err != nil }

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
// truncation. The args are boxed at the call, whether or not the check
// fails, so a per-entry loop tests its condition first and calls
// Check(false, …) only on failure: decode then allocates nothing per entry.
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
	h, err := ReadHeader(r.buf[r.off:])
	r.Fail(err)
	r.take(HeaderSize)
	if err == nil {
		r.version = h.Version
	}
	// Both mismatch errors spell out the raw tag byte: when debugging a
	// corrupt (or future-version) snapshot, "tag byte 0x07" distinguishes a
	// flipped bit from a family this build simply does not know yet.
	if h.Tag != tag {
		r.Fail(fmt.Errorf("wire: snapshot carries %v values (tag byte 0x%02X), want %v: %w", h.Tag, uint8(h.Tag), tag, ErrValueType))
	}
	if h.Family != fam {
		r.Fail(fmt.Errorf("wire: snapshot family %v (tag byte 0x%02X), want %v: %w", h.Family, uint8(h.Family), fam, ErrFamily))
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

// uvarint reads an unsigned LEB128 varint. Only the minimal encoding is
// accepted, so each value has one encoding and re-encoding a decoded blob
// reproduces it: a final byte of 0 after others (an overlong encoding) or a
// varint past 64 bits is ErrCorrupt, and a buffer that ends inside a
// varint is ErrTruncated.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// binary.Uvarint rejects a varint past 64 bits (n < 0) and one the
	// buffer cuts short (n == 0), but not an overlong one.
	switch u, n := binary.Uvarint(r.buf[r.off:]); {
	case n == 1 || n > 1 && r.buf[r.off+n-1] != 0:
		r.off += n
		return u
	case n > 0:
		r.err = fmt.Errorf("wire: overlong varint at offset %d: %w", r.off, ErrCorrupt)
	case n == 0 && r.Remaining() < binary.MaxVarintLen64:
		r.err = fmt.Errorf("wire: varint at offset %d runs past the end of the buffer: %w", r.off, ErrTruncated)
	default: // ten bytes that all continue, or a tenth byte past bit 64
		r.err = fmt.Errorf("wire: varint at offset %d overflows 64 bits: %w", r.off, ErrCorrupt)
	}
	return 0
}

// Varint reads a varint AppendVarint wrote, accepting only its minimal
// encoding (uvarint).
func (r *Reader) Varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a record's integer field: the varint AppendVarint wrote, or in
// a version-1 blob the fixed-width int64 AppendI64 wrote.
func (r *Reader) Int() int64 {
	if r.version == 1 {
		return r.I64()
	}
	return r.Varint()
}

// MinRecord reports the fewest bytes a record of one value
// (ValueDeltas.Read) and ints integer fields (Int) takes in the blob being
// decoded: the element size a record list's Count validates against. From
// version 2 on that is one byte a field, so a record decoding to 16 or 24
// bytes in memory may take 2 or 3 on the wire, and a hostile count can make
// a decoder allocate up to 8 bytes per input byte before it fails (version
// 1's fixed widths bounded it near 1.2).
func MinRecord[T sorter.Value](r *Reader, ints int) int {
	if r.version == 1 {
		return sorter.Width[T]() + 8*ints
	}
	return 1 + ints
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.u64()) }

// F64 reads a little-endian IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.u64()) }

// Eps reads an estimator's error bound as an F64, which must lie in (0, 1),
// the range every estimator constructor accepts; NaN fails.
func (r *Reader) Eps() float64 {
	eps := r.F64()
	if !(eps > 0 && eps < 1) {
		r.Check(false, "wire: eps %v out of (0, 1)", eps)
	}
	return eps
}

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
