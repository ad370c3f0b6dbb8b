package frequency

import (
	"gpustream/internal/sorter"
	"gpustream/internal/wire"
)

// Wire layout of a frequency Snapshot (family tag wire.FamilyFrequency):
//
//	header  wire.HeaderSize bytes
//	eps     float64
//	n       int64
//	count   uint32
//	entries count × (value[4|8] + freq int64 + delta int64)
//
// Entries are strictly value-ascending, matching the in-memory summary; the
// decoder enforces it so a decoded snapshot upholds the same invariants as a
// live one. See DESIGN.md section 12.

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces the bytes exactly.
func (s *Snapshot[T]) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, wire.HeaderSize+8+8+4+len(s.entries)*(sorter.Width[T]()+16))
	b = wire.AppendHeader(b, wire.FamilyFrequency, wire.TagOf[T]())
	b = wire.AppendF64(b, s.eps)
	b = wire.AppendI64(b, s.n)
	b = wire.AppendU32(b, uint32(len(s.entries)))
	for _, e := range s.entries {
		b = wire.AppendValue(b, e.value)
		b = wire.AppendI64(b, e.freq)
		b = wire.AppendI64(b, e.delta)
	}
	return b, nil
}

// UnmarshalSnapshot decodes a frequency snapshot marshaled by any process.
// Every failure — truncation, bad header, mismatched tags, overflowed
// lengths, unsorted entries — returns a wrapped wire sentinel error;
// UnmarshalSnapshot never panics and never allocates from an unvalidated
// length field.
func UnmarshalSnapshot[T sorter.Value](data []byte) (*Snapshot[T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyFrequency, wire.TagOf[T]())
	s := &Snapshot[T]{eps: r.F64(), n: r.I64()}
	r.Check(s.n >= 0, "frequency: negative stream length %d", s.n)
	if count := r.Count(sorter.Width[T]() + 16); count > 0 {
		s.entries = make([]entry[T], count)
	}
	for i := range s.entries {
		s.entries[i] = entry[T]{value: wire.ReadValue[T](r), freq: r.I64(), delta: r.I64()}
		r.Check(i == 0 || s.entries[i-1].value < s.entries[i].value, "frequency: entries not strictly value-ascending at %d", i)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
