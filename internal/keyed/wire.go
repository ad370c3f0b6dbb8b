package keyed

import (
	"gpustream/internal/frequency"
	"gpustream/internal/frugal"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
	"gpustream/internal/wire"
)

// Wire layout of a keyed Snapshot (family tag wire.FamilyKeyed). The header
// tag byte identifies T (the value type); the key type gets a second tag
// byte of its own immediately after the header — the keyed container is the
// one family instantiated over two value types:
//
//	header      wire.HeaderSize bytes
//	ktag        uint8 (key value-type tag)
//	phi         float64
//	support     float64
//	n           int64
//	promotions  int64
//	fcount      uint32
//	frugal      fcount × (key[4|8] + est[4|8] + ctl uint8 + cnt int64)
//	pcount      uint32
//	promoted    pcount × (key[4|8] + embedded summary)
//	olen        uint32
//	oracle      olen bytes (a complete FamilyFrequency snapshot blob over K)
//
// Both tiers are strictly key-ascending with disjoint key sets, frugal
// control bytes obey the tracker invariants (never fresh — a tracked key
// was observed), and the nested oracle blob revalidates under the frequency
// family's own decoder. See DESIGN.md section 13.

// MarshalBinary implements encoding.BinaryMarshaler: the versioned,
// endian-stable wire encoding of the snapshot. The encoding is canonical —
// unmarshal then marshal reproduces a current-version blob exactly. An
// older blob re-marshals at the current version, with its promoted
// summaries' rank bounds ordered (DESIGN.md section 12).
func (s *Snapshot[K, T]) MarshalBinary() ([]byte, error) {
	oracle, err := s.oracle.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b := wire.AppendHeader(nil, wire.FamilyKeyed, wire.TagOf[T]())
	b = wire.AppendU8(b, uint8(wire.TagOf[K]()))
	b = wire.AppendF64(b, s.phi)
	b = wire.AppendF64(b, s.support)
	b = wire.AppendI64(b, s.n)
	b = wire.AppendI64(b, s.promotions)
	b = wire.AppendU32(b, uint32(len(s.frugal)))
	for _, f := range s.frugal {
		b = wire.AppendValue(b, f.Key)
		b = wire.AppendValue(b, f.Est)
		b = wire.AppendU8(b, f.Ctl)
		b = wire.AppendI64(b, f.Cnt)
	}
	b = wire.AppendU32(b, uint32(len(s.promo)))
	for _, p := range s.promo {
		b = wire.AppendValue(b, p.Key)
		b = summary.AppendBinary(b, p.Sum)
	}
	b = wire.AppendU32(b, uint32(len(oracle)))
	return append(b, oracle...), nil
}

// UnmarshalSnapshot decodes a keyed snapshot marshaled by any process. Both
// instantiation types must match the blob's two tag bytes. Every failure —
// truncation, bad header, mismatched tags, overflowed lengths, violated
// tier invariants, a corrupt nested oracle — returns a wrapped wire
// sentinel error; it never panics and never allocates from an unvalidated
// length field.
func UnmarshalSnapshot[K sorter.Value, T sorter.Value](data []byte) (*Snapshot[K, T], error) {
	r := wire.NewReader(data)
	r.Header(wire.FamilyKeyed, wire.TagOf[T]())
	ktag := r.U8()
	r.Check(wire.Tag(ktag) == wire.TagOf[K](), "keyed: snapshot carries %v keys (tag byte 0x%02X), want %v", wire.Tag(ktag), ktag, wire.TagOf[K]())
	s := &Snapshot[K, T]{}
	s.phi = r.F64()
	r.Check(s.phi >= 0 && s.phi <= 1, "keyed: frugal target %v out of [0, 1]", s.phi) // also rejects NaN
	s.support = r.F64()
	r.Check(s.support > 0 && s.support < 1, "keyed: promotion support %v out of (0, 1)", s.support)
	s.n = r.I64()
	r.Check(s.n >= 0, "keyed: negative observation count %d", s.n)
	s.promotions = r.I64()
	r.Check(s.promotions >= 0, "keyed: negative promotion count %d", s.promotions)
	ksz, tsz := sorter.Width[K](), sorter.Width[T]()
	if fcount := r.Count(ksz + tsz + 1 + 8); fcount > 0 {
		s.frugal = make([]FrugalEntry[K, T], fcount)
	}
	// Entry checks test first and format only on failure (wire.Reader.Check).
	for i := range s.frugal {
		if r.Failed() {
			break
		}
		f := &s.frugal[i]
		f.Key = wire.ReadValue[K](r)
		if i > 0 && sorter.OrderedKey(s.frugal[i-1].Key) >= sorter.OrderedKey(f.Key) {
			r.Check(false, "keyed: frugal tier not strictly key-ascending at %d", i)
		}
		f.Est, f.Ctl = wire.ReadValue[T](r), r.U8()
		if !frugal.ValidCtl(f.Ctl) || frugal.Fresh(f.Ctl) {
			r.Check(false, "keyed: frugal entry %d control byte 0x%02X invalid", i, f.Ctl)
		}
		f.Cnt = r.I64()
		if f.Cnt < 1 {
			r.Check(false, "keyed: frugal entry %d backing count %d < 1", i, f.Cnt)
		}
	}
	if pcount := r.Count(ksz + 8 + 8 + 4); pcount > 0 {
		s.promo = make([]PromotedEntry[K, T], pcount)
	}
	for i := range s.promo {
		if r.Failed() {
			break
		}
		p := &s.promo[i]
		p.Key = wire.ReadValue[K](r)
		if i > 0 && sorter.OrderedKey(s.promo[i-1].Key) >= sorter.OrderedKey(p.Key) {
			r.Check(false, "keyed: promoted tier not strictly key-ascending at %d", i)
		}
		p.Sum = summary.Decode[T](r)
		if p.Sum.N < 1 {
			r.Check(false, "keyed: promoted key %d summary covers no observations", i)
		}
	}
	// Tier disjointness: both lists are sorted, so one linear pass suffices.
	fi := 0
	for _, p := range s.promo {
		for fi < len(s.frugal) && sorter.OrderedKey(s.frugal[fi].Key) < sorter.OrderedKey(p.Key) {
			fi++
		}
		r.Check(fi == len(s.frugal) || s.frugal[fi].Key != p.Key, "keyed: key in both tiers")
	}
	// The nested oracle blob revalidates under its own family's decoder; a
	// blob this reader already failed on is nil there and changes nothing.
	// It must carry the outer blob's version: a marshal writes both at the
	// current one, so a mixed pair would not re-marshal to itself.
	nested := r.Bytes(r.Count(1))
	if h, err := wire.ReadHeader(nested); err == nil && h.Version != r.Version() {
		r.Check(false, "keyed: oracle blob at format version %d inside a version %d blob", h.Version, r.Version())
	}
	oracle, err := frequency.UnmarshalSnapshot[K](nested)
	r.Fail(err)
	s.oracle = oracle
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
