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
//	entries count × (value delta uvarint + freq varint + delta varint)
//
// An entry's value is its key minus the previous entry's key
// (wire.ValueDeltas); freq and delta are written as they are. Version 1
// wrote each entry as fixed-width fields:
//
//	entries count × (value[4|8] + freq int64 + delta int64)      (version 1)
//
// Entries are strictly value-ascending with 0 ≤ freq ≤ n and delta ≥ 0,
// matching the in-memory summary; the decoder enforces it so a decoded
// snapshot upholds the same invariants as a live one. See DESIGN.md
// section 12.

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces the bytes exactly.
func (s *Snapshot[T]) MarshalBinary() ([]byte, error) {
	b := wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagOf[T]())
	b = wire.AppendF64(b, s.eps)
	b = wire.AppendI64(b, s.n)
	b = wire.AppendU32(b, uint32(len(s.entries)))
	var vd wire.ValueDeltas[T]
	for _, e := range s.entries {
		b = vd.Append(b, e.value)
		b = wire.AppendVarint(b, e.freq)
		b = wire.AppendVarint(b, e.delta)
	}
	return b, nil
}

// UnmarshalSnapshot decodes a frequency snapshot marshaled by any process.
// Every failure — truncation, bad header, mismatched tags, overflowed
// lengths, unsorted entries, impossible counts — returns a wrapped wire
// sentinel error; UnmarshalSnapshot never panics and never allocates from an
// unvalidated length field.
func UnmarshalSnapshot[T sorter.Value](data []byte) (*Snapshot[T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyFrequency, wire.TagOf[T]())
	s := &Snapshot[T]{eps: r.Eps(), n: r.I64()}
	r.Check(s.n >= 0, "frequency: negative stream length %d", s.n)
	if count := r.Count(wire.MinRecord[T](r, 2)); count > 0 {
		s.entries = make([]entry[T], count)
	}
	var vd wire.ValueDeltas[T]
	for i := range s.entries {
		if r.Failed() {
			break
		}
		e := &s.entries[i]
		*e = entry[T]{value: vd.Read(r), freq: r.Int(), delta: r.Int()}
		// Checked first, formatted only on failure (wire.Reader.Check).
		if i > 0 && !(s.entries[i-1].value < e.value) {
			r.Check(false, "frequency: entries not strictly value-ascending at %d", i)
		}
		if e.freq < 0 || e.delta < 0 || e.freq > s.n {
			r.Check(false, "frequency: entry %d has freq %d, delta %d with n = %d", i, e.freq, e.delta, s.n)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
