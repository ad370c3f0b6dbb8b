package summary

import (
	"gpustream/internal/sorter"
	"gpustream/internal/wire"
)

// Wire layout of one Summary (no header — summaries are embedded inside
// family bodies, which carry the header):
//
//	eps     float64
//	n       int64
//	count   uint32
//	entries count × (value[4|8] + rmin int64 + rmax int64)
//
// See DESIGN.md section 12.

// EncodedSize reports the exact encoded byte length of s, so callers can
// pre-size their buffers.
func EncodedSize[T sorter.Value](s *Summary[T]) int {
	return 8 + 8 + 4 + len(s.Entries)*(wire.ValueSize[T]()+16)
}

// AppendBinary appends the wire encoding of s to b. The encoding is
// canonical: equal summaries produce equal bytes.
func AppendBinary[T sorter.Value](b []byte, s *Summary[T]) []byte {
	b = wire.AppendF64(b, s.Eps)
	b = wire.AppendI64(b, s.N)
	b = wire.AppendU32(b, uint32(len(s.Entries)))
	for _, e := range s.Entries {
		b = wire.AppendValue(b, e.V)
		b = wire.AppendI64(b, e.RMin)
		b = wire.AppendI64(b, e.RMax)
	}
	return b
}

// Decode reads one summary from r, validating lengths before allocating and
// the GK structural invariants (value-ascending entries, rank bounds inside
// [1, N]) after. Failures wrap the wire sentinels; Decode never panics.
func Decode[T sorter.Value](r *wire.Reader) (*Summary[T], error) {
	eps, err := r.F64()
	if err != nil {
		return nil, err
	}
	n, err := r.I64()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, wire.Corruptf("summary: negative element count %d", n)
	}
	count, err := r.Count(wire.ValueSize[T]() + 16)
	if err != nil {
		return nil, err
	}
	if n > 0 && count == 0 {
		// A GK summary over a non-empty stream always retains entries (the
		// coverage invariant needs at least the extremes); a headless body
		// claiming otherwise would panic rank queries downstream.
		return nil, wire.Corruptf("summary: %d elements but no entries", n)
	}
	s := &Summary[T]{Eps: eps, N: n}
	if count > 0 {
		s.Entries = make([]Entry[T], count)
	}
	for i := range s.Entries {
		if s.Entries[i].V, err = wire.ReadValue[T](r); err != nil {
			return nil, err
		}
		if s.Entries[i].RMin, err = r.I64(); err != nil {
			return nil, err
		}
		if s.Entries[i].RMax, err = r.I64(); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, wire.Corruptf("summary: %v", err)
	}
	s.ranked = ranksOrdered(s.Entries)
	return s, nil
}

// ranksOrdered reports whether both rank bounds are non-decreasing.
func ranksOrdered[T sorter.Value](es []Entry[T]) bool {
	for i := 1; i < len(es); i++ {
		if es[i].RMin < es[i-1].RMin || es[i].RMax < es[i-1].RMax {
			return false
		}
	}
	return true
}
