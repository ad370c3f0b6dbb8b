package frugal

import (
	"gpustream/internal/sorter"
	"gpustream/internal/wire"
)

// Wire layout of a frugal Snapshot (family tag wire.FamilyFrugal):
//
//	header   wire.HeaderSize bytes
//	n        int64
//	count    uint32
//	trackers count × (phi float64 + est value[4|8] + ctl uint8)
//
// Trackers are strictly phi-ascending with targets in [0, 1]; the control
// byte packs the step exponent (<= 62) and last-move direction, and a fresh
// direction is legal exactly when n is zero — every tracker steps on every
// observation, so a non-empty stream leaves no tracker fresh. The decoder
// enforces all of it so a decoded snapshot upholds the same invariants as a
// live one. See DESIGN.md §17.

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces the bytes exactly.
func (s *Snapshot[T]) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, wire.HeaderSize+8+4+len(s.phis)*(8+sorter.Width[T]()+1))
	b = wire.AppendHeader(b, wire.FamilyFrugal, wire.TagOf[T]())
	b = wire.AppendI64(b, s.n)
	b = wire.AppendU32(b, uint32(len(s.phis)))
	for i, phi := range s.phis {
		b = wire.AppendF64(b, phi)
		b = wire.AppendValue(b, s.ests[i])
		b = wire.AppendU8(b, s.ctls[i])
	}
	return b, nil
}

// UnmarshalSnapshot decodes a frugal snapshot marshaled by any process.
// Every failure — truncation, bad header, mismatched tags, overflowed
// lengths, violated tracker invariants — returns a wrapped wire sentinel
// error; it never panics and never allocates from an unvalidated length
// field.
func UnmarshalSnapshot[T sorter.Value](data []byte) (*Snapshot[T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyFrugal, wire.TagOf[T]())
	s := &Snapshot[T]{n: r.I64()}
	r.Check(s.n >= 0, "frugal: negative stream length %d", s.n)
	count := r.Count(8 + sorter.Width[T]() + 1)
	r.Check(count > 0, "frugal: snapshot tracks no target quantiles")
	s.phis = make([]float64, count)
	s.ests = make([]T, count)
	s.ctls = make([]uint8, count)
	for i := range s.phis {
		phi := r.F64()
		r.Check(phi >= 0 && phi <= 1, "frugal: tracker %d target %v out of [0, 1]", i, phi) // also rejects NaN
		r.Check(i == 0 || s.phis[i-1] < phi, "frugal: trackers not strictly phi-ascending at %d", i)
		s.phis[i], s.ests[i], s.ctls[i] = phi, wire.ReadValue[T](r), r.U8()
		ctl := s.ctls[i]
		r.Check(ctl&expMask <= maxExp, "frugal: tracker %d step exponent %d > %d", i, ctl&expMask, maxExp)
		r.Check(ctl&signMask != signMask, "frugal: tracker %d direction bits 0x%02X invalid", i, ctl&signMask)
		r.Check((ctl&signMask == signFresh) == (s.n == 0), "frugal: tracker %d freshness inconsistent with stream length %d", i, s.n)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
