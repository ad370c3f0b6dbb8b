package window

import (
	"gpustream/internal/histogram"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
	"gpustream/internal/wire"
)

// Wire layouts of the sliding-window snapshots. Both serialize the pane ring
// at full fidelity — per-pane state, not a pre-merged view — so a decoded
// snapshot answers variable-span QueryWindow queries exactly like the
// original. See DESIGN.md §15.
//
// FrequencySnapshot (family tag wire.FamilyWindowFrequency):
//
//	header       wire.HeaderSize bytes
//	eps          float64
//	w            int64
//	count        int64
//	partialCount int64
//	partialBins  bins
//	panes        uint32 + count × (total int64, bins)
//	bins         uint32 + count × (value delta uvarint + count varint)
//
// A bin's value is its key minus the previous bin's key in the same list
// (wire.ValueDeltas); its count is written as it is. Version 1 wrote each
// bin as fixed-width fields:
//
//	bins         uint32 + count × (value[4|8] + count int64)      (version 1)
//
// QuantileSnapshot (family tag wire.FamilyWindowQuantile):
//
//	header  wire.HeaderSize bytes
//	eps     float64
//	w       int64
//	count   int64
//	partial uint8 (0|1) + summary wire encoding when 1
//	panes   uint32 + count × summary wire encoding

// appendBins appends a histogram bin list: uint32 count then value+count
// pairs.
func appendBins[T sorter.Value](b []byte, bins []histogram.Bin[T]) []byte {
	b = wire.AppendU32(b, uint32(len(bins)))
	var vd wire.ValueDeltas[T]
	for _, bin := range bins {
		b = vd.Append(b, bin.Value)
		b = wire.AppendVarint(b, bin.Count)
	}
	return b
}

// decodeBins reads a histogram bin list, enforcing strict value order,
// non-negative counts and a count sum of at most total — the pane's total,
// or the partial pane's length — so decoded panes uphold the same
// invariants as live ones. The sum is checked as a running remainder, so
// hostile counts cannot overflow it.
func decodeBins[T sorter.Value](r *wire.Reader, total int64) []histogram.Bin[T] {
	var bins []histogram.Bin[T]
	if count := r.Count(wire.MinRecord[T](r, 1)); count > 0 {
		bins = make([]histogram.Bin[T], count)
	}
	var vd wire.ValueDeltas[T]
	for i := range bins {
		if r.Failed() {
			break
		}
		bin := &bins[i]
		*bin = histogram.Bin[T]{Value: vd.Read(r), Count: r.Int()}
		// Checked first, formatted only on failure (wire.Reader.Check).
		if i > 0 && !(bins[i-1].Value < bin.Value) {
			r.Check(false, "window: histogram bins not strictly value-ascending at %d", i)
		}
		if bin.Count < 0 {
			r.Check(false, "window: histogram bin %d has negative count %d", i, bin.Count)
		} else if total -= bin.Count; total < 0 {
			r.Check(false, "window: histogram bins through %d count more than their pane holds", i)
		}
	}
	return bins
}

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces the bytes exactly.
func (s *FrequencySnapshot[T]) MarshalBinary() ([]byte, error) {
	b := wire.AppendHeader(nil, wire.FamilyWindowFrequency, wire.TagOf[T]())
	b = wire.AppendF64(b, s.eps)
	b = wire.AppendI64(b, int64(s.w))
	b = wire.AppendI64(b, s.count)
	b = wire.AppendI64(b, s.partialCount)
	b = appendBins(b, s.partialBins)
	b = wire.AppendU32(b, uint32(len(s.panes)))
	for _, p := range s.panes {
		b = wire.AppendI64(b, p.total)
		b = appendBins(b, p.bins)
	}
	return b, nil
}

// UnmarshalFrequencySnapshot decodes a sliding-frequency snapshot marshaled
// by any process. Every failure returns a wrapped wire sentinel error; it
// never panics and never allocates from an unvalidated length field.
func UnmarshalFrequencySnapshot[T sorter.Value](data []byte) (*FrequencySnapshot[T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyWindowFrequency, wire.TagOf[T]())
	s := &FrequencySnapshot[T]{eps: r.Eps(), w: windowSize(r), count: r.I64(), partialCount: r.I64()}
	r.Check(s.count >= 0 && s.partialCount >= 0, "window: negative counts (%d, %d)", s.count, s.partialCount)
	s.partialBins = decodeBins[T](r, s.partialCount)
	// A pane is at least its total plus an empty bin list.
	if paneCount := r.Count(8 + 4); paneCount > 0 {
		s.panes = make([]freqPane[T], paneCount)
	}
	for i := range s.panes {
		s.panes[i].total = r.I64()
		if s.panes[i].total < 0 {
			r.Check(false, "window: pane %d has negative total %d", i, s.panes[i].total)
		}
		s.panes[i].bins = decodeBins[T](r, s.panes[i].total)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// windowSize reads a window size, which must be positive and fit an int.
func windowSize(r *wire.Reader) int {
	w := r.I64()
	r.Check(w > 0 && int64(int(w)) == w, "window: window size %d out of range", w)
	return int(w)
}

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces the bytes exactly.
func (s *QuantileSnapshot[T]) MarshalBinary() ([]byte, error) {
	b := wire.AppendHeader(nil, wire.FamilyWindowQuantile, wire.TagOf[T]())
	b = wire.AppendF64(b, s.eps)
	b = wire.AppendI64(b, int64(s.w))
	b = wire.AppendI64(b, s.count)
	if s.partial == nil {
		b = wire.AppendU8(b, 0)
	} else {
		b = wire.AppendU8(b, 1)
		b = summary.AppendBinary(b, s.partial)
	}
	b = wire.AppendU32(b, uint32(len(s.panes)))
	for _, p := range s.panes {
		b = summary.AppendBinary(b, p)
	}
	return b, nil
}

// UnmarshalQuantileSnapshot decodes a sliding-quantile snapshot marshaled by
// any process. Every failure returns a wrapped wire sentinel error; it never
// panics and never allocates from an unvalidated length field.
func UnmarshalQuantileSnapshot[T sorter.Value](data []byte) (*QuantileSnapshot[T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyWindowQuantile, wire.TagOf[T]())
	s := &QuantileSnapshot[T]{eps: r.Eps(), w: windowSize(r), count: r.I64()}
	r.Check(s.count >= 0, "window: negative count %d", s.count)
	present := r.U8()
	r.Check(present <= 1, "window: partial-present flag %d", present)
	if present == 1 {
		s.partial = summary.Decode[T](r)
	}
	// A pane summary is at least eps + n + an empty entry list.
	if paneCount := r.Count(8 + 8 + 4); paneCount > 0 {
		s.panes = make([]*summary.Summary[T], paneCount)
	}
	for i := range s.panes {
		s.panes[i] = summary.Decode[T](r)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
