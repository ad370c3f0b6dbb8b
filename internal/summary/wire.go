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
	return 8 + 8 + 4 + len(s.Entries)*(sorter.Width[T]()+16)
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
// [1, N]) after. Failures land in r wrapping the wire sentinels — the
// caller's r.Finish reports them, and must be checked before the summary is
// used; Decode never panics and never returns nil.
func Decode[T sorter.Value](r *wire.Reader) *Summary[T] {
	s := &Summary[T]{Eps: r.F64(), N: r.I64()}
	r.Check(s.N >= 0, "summary: negative element count %d", s.N)
	count := r.Count(sorter.Width[T]() + 16)
	// A GK summary over a non-empty stream always retains entries (the
	// coverage invariant needs at least the extremes); a headless body
	// claiming otherwise would panic rank queries downstream.
	r.Check(s.N <= 0 || count > 0, "summary: %d elements but no entries", s.N)
	if count > 0 {
		s.Entries = make([]Entry[T], count)
	}
	for i := range s.Entries {
		s.Entries[i] = Entry[T]{V: wire.ReadValue[T](r), RMin: r.I64(), RMax: r.I64()}
	}
	err := s.Validate()
	r.Check(err == nil, "summary: %v", err)
	s.ranked = ranksOrdered(s.Entries)
	return s
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
