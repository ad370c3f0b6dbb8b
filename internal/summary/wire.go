package summary

import (
	"math"

	"gpustream/internal/sorter"
	"gpustream/internal/wire"
)

// Wire layout of one Summary (no header — summaries are embedded inside
// family bodies, which carry the header):
//
//	eps     float64
//	n       int64
//	count   uint32
//	entries count × (value delta uvarint + rmin delta varint + rmax−rmin varint)
//
// An entry's value is its key minus the previous entry's key
// (wire.ValueDeltas), its RMin the difference from the previous entry's
// RMin (0 before the first), and its RMax the difference from its own RMin.
// A neighbour's rank bounds differ by about the entry's gap, so a float32
// entry takes ~6 bytes where version 1's fixed-width record took 20:
//
//	entries count × (value[4|8] + rmin int64 + rmax int64)      (version 1)
//
// See DESIGN.md section 12.

// AppendBinary appends the wire encoding of s to b. The encoding is
// canonical: equal summaries produce equal bytes.
func AppendBinary[T sorter.Value](b []byte, s *Summary[T]) []byte {
	b = wire.AppendF64(b, s.Eps)
	b = wire.AppendI64(b, s.N)
	b = wire.AppendU32(b, uint32(len(s.Entries)))
	var vd wire.ValueDeltas[T]
	var rmin int64
	for _, e := range s.Entries {
		b = vd.Append(b, e.V)
		b = wire.AppendVarint(b, e.RMin-rmin)
		b = wire.AppendVarint(b, e.RMax-e.RMin)
		rmin = e.RMin
	}
	return b
}

// Decode reads one summary from r, validating lengths before allocating and
// the GK structural invariants (value-ascending entries, non-decreasing
// rank bounds inside [1, N]) after. Failures land in r wrapping the wire
// sentinels — the caller's r.Finish reports them, and must be checked
// before the summary is used; Decode never panics and never returns nil.
func Decode[T sorter.Value](r *wire.Reader) *Summary[T] {
	// Checked first, formatted only on failure (wire.Reader.Check): a family
	// decodes one summary per pane or promoted key.
	s := &Summary[T]{Eps: r.F64(), N: r.I64()}
	if s.N < 0 {
		r.Check(false, "summary: negative element count %d", s.N)
	}
	// 0 is an exact summary's; merges take the max, so NaN or +Inf would
	// spread to every answer built on this one.
	if !(s.Eps >= 0) || math.IsInf(s.Eps, 1) {
		r.Check(false, "summary: eps %v is negative or not finite", s.Eps)
	}
	count := r.Count(wire.MinRecord[T](r, 2))
	// A GK summary over a non-empty stream always retains entries (the
	// coverage invariant needs at least the extremes); a headless body
	// claiming otherwise would panic rank queries downstream.
	if s.N > 0 && count == 0 {
		r.Check(false, "summary: %d elements but no entries", s.N)
	}
	if count > 0 {
		s.Entries = make([]Entry[T], count)
	}
	// Version 1 wrote both rank bounds as they are; since version 2 RMin is
	// the difference from the previous entry's and RMax from its own RMin.
	v1 := r.Version() == 1
	var vd wire.ValueDeltas[T]
	var rmin int64
	for i := range s.Entries {
		e := &s.Entries[i]
		e.V = vd.Read(r)
		lo, hi := r.Int(), r.Int()
		if v1 {
			e.RMin, e.RMax = lo, hi
			continue
		}
		rmin += lo
		e.RMin, e.RMax = rmin, rmin+hi
	}
	// Versions 1 and 2 wrote GK.ToSummary's bounds as GK kept them, which
	// need not be ordered; since version 3 every summary is written ordered,
	// and Validate rejects one that is not.
	if r.Version() < 3 {
		orderRanks(s.Entries)
	}
	if err := s.Validate(); err != nil {
		r.Check(false, "summary: %v", err)
	}
	return s
}
