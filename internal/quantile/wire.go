package quantile

import (
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
	"gpustream/internal/wire"
)

// Wire layout of a quantile Snapshot (family tag wire.FamilyQuantile):
//
//	header  wire.HeaderSize bytes
//	eps     float64
//	present uint8 (0 = empty stream, 1 = summary follows)
//	summary summary wire encoding (eps, n, count, entries)
//
// See DESIGN.md section 12.

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces the bytes exactly.
func (s *Snapshot[T]) MarshalBinary() ([]byte, error) {
	b := wire.AppendHeader(nil, wire.FamilyQuantile, wire.TagOf[T]())
	b = wire.AppendF64(b, s.eps)
	if s.sum == nil {
		return wire.AppendU8(b, 0), nil
	}
	b = wire.AppendU8(b, 1)
	return summary.AppendBinary(b, s.sum), nil
}

// UnmarshalSnapshot decodes a quantile snapshot marshaled by any process.
// Every failure — truncation, bad header, mismatched tags, overflowed
// lengths, violated GK invariants — returns a wrapped wire sentinel error;
// UnmarshalSnapshot never panics and never allocates from an unvalidated
// length field.
func UnmarshalSnapshot[T sorter.Value](data []byte) (*Snapshot[T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyQuantile, wire.TagOf[T]())
	s := &Snapshot[T]{eps: r.Eps()}
	present := r.U8()
	r.Check(present <= 1, "quantile: summary-present flag %d", present)
	if present == 1 {
		s.sum = summary.Decode[T](r)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
