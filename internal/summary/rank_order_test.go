package summary

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/stream"
	"gpustream/internal/wire"
)

// lateInserts is n values whose first half ascends over the even numbers
// and whose second half lands between them, odd numbers in random order:
// each late insert is interior and carries GK's large delta of that time.
func lateInserts(n int, seed uint64) []float32 {
	rng := stream.NewRNG(seed)
	out := make([]float32, n)
	for i := range n / 2 {
		out[i] = float32(2 * i)
	}
	for i := n / 2; i < n; i++ {
		out[i] = float32(2*rng.Intn(n/2) + 1)
	}
	return out
}

// rawBounds is g's tuples as rank bounds, before ToSummary orders them:
// RMin the running sum of g, RMax RMin plus delta.
func rawBounds(g *GK[float32]) []Entry[float32] {
	es := make([]Entry[float32], len(g.tuples))
	var rmin int64
	for i, t := range g.tuples {
		rmin += t.g
		es[i] = Entry[float32]{V: t.v, RMin: rmin, RMax: rmin + t.delta}
	}
	return es
}

// rawDips reports whether some RMax lies above a later entry's.
func rawDips(es []Entry[float32]) bool {
	for i := 1; i < len(es); i++ {
		if es[i].RMax < es[i-1].RMax {
			return true
		}
	}
	return false
}

// checkGKToSummary checks g.ToSummary() over data: rank bounds ordered and
// inside [1, N], no bound wider than GK's own, every entry's exact rank
// inside its bounds, a certificate no larger than the raw bounds give, and
// the bisecting query equal to the scan at every rank. Entries of one value
// are distinct elements in ascending rank, so of a value at exact ranks
// lo..hi held by m entries, the k-th (from 0) lies at a rank in
// lo+k..hi-(m-1-k).
func checkGKToSummary(t *testing.T, data []float32, g *GK[float32]) {
	t.Helper()
	s, raw := g.ToSummary(), rawBounds(g)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N != int64(len(data)) || len(s.Entries) != len(raw) {
		t.Fatalf("N=%d with %d entries, want %d with %d", s.N, len(s.Entries), len(data), len(raw))
	}
	truth := oracle.New(data)
	for i, e := range s.Entries {
		if e.V != raw[i].V || e.RMin < raw[i].RMin || e.RMax > raw[i].RMax {
			t.Fatalf("entry %d: %+v widens GK's %+v", i, e, raw[i])
		}
		if i > 0 && (e.RMin < s.Entries[i-1].RMin || e.RMax < s.Entries[i-1].RMax) {
			t.Fatalf("entry %d: bounds [%d, %d] below entry %d's %+v", i, e.RMin, e.RMax, i-1, s.Entries[i-1])
		}
		first, last := i, i
		for first > 0 && s.Entries[first-1].V == e.V {
			first--
		}
		for last+1 < len(s.Entries) && s.Entries[last+1].V == e.V {
			last++
		}
		lo, hi := truth.Ranks(e.V)
		lo, hi = lo+int64(i-first), hi-int64(last-i)
		if hi < e.RMin || lo > e.RMax {
			t.Fatalf("entry %d (%v): exact ranks %d..%d outside [%d, %d]", i, e.V, lo, hi, e.RMin, e.RMax)
		}
	}
	if c, rc := s.Certificate(), (&Summary[float32]{Entries: raw, N: s.N}).Certificate(); c > rc {
		t.Fatalf("certificate %v above the raw bounds' %v", c, rc)
	}
	for r := int64(1); r <= s.N; r++ {
		if got, want := s.queryIndex(r), s.queryIndexLinear(r); got != want {
			t.Fatalf("rank %d: bisection picked entry %d, scan %d", r, got, want)
		}
	}
}

// TestGKToSummaryOrdersRanks holds GK.ToSummary to checkGKToSummary over
// uniform, zipf, sorted, all-equal and late-insert streams, at two eps and
// two compress schedules.
func TestGKToSummaryOrdersRanks(t *testing.T) {
	allEqual := make([]float32, 4000)
	for i := range allEqual {
		allEqual[i] = 7
	}
	for name, data := range map[string][]float32{
		"uniform":      stream.Uniform(4000, 11),
		"zipf":         stream.Zipf(4000, 1.1, 100, 12),
		"sorted":       stream.Sorted(4000),
		"all-equal":    allEqual,
		"late-inserts": lateInserts(4000, 13),
	} {
		t.Run(name, func(t *testing.T) {
			for _, eps := range []float64{0.01, 0.05} {
				for _, every := range []int64{0, 700} {
					checkGKToSummary(t, data, gkOf(data, eps, every))
				}
			}
		})
	}
}

// FuzzGKToSummary holds GK.ToSummary to checkGKToSummary on values and a
// compress interval from the fuzzer: one value per byte, so runs of equal
// values are common.
func FuzzGKToSummary(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(1))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint16(3))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz13579bdfhjlnprtvxz02468"), uint16(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, then over the fox"), uint16(500))
	f.Fuzz(func(t *testing.T, raw []byte, every uint16) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		data := make([]float32, len(raw))
		for i, b := range raw {
			data[i] = float32(b)
		}
		checkGKToSummary(t, data, gkOf(data, 0.05, int64(every%512)))
	})
}

// summaryBlob writes s as a quantile-family reader would meet it at format
// version v: the header, then the summary in v's layout.
func summaryBlob(v uint16, s *Summary[float32]) []byte {
	b := wire.AppendHeader(nil, wire.FamilyQuantile, wire.TagFloat32)
	binary.LittleEndian.PutUint16(b[4:], v)
	if v > 1 {
		return AppendBinary(b, s)
	}
	b = wire.AppendU32(wire.AppendI64(wire.AppendF64(b, s.Eps), s.N), uint32(len(s.Entries)))
	for _, e := range s.Entries {
		b = wire.AppendI64(wire.AppendI64(wire.AppendValue(b, e.V), e.RMin), e.RMax)
	}
	return b
}

// TestDecodeOrdersOlderVersions: a summary whose RMax dips, as GK's did
// before ToSummary ordered it, decodes ordered from versions 1 and 2,
// which wrote such summaries, and is corrupt at version 3, which does not.
func TestDecodeOrdersOlderVersions(t *testing.T) {
	dip := &Summary[float32]{N: 10, Eps: 0.2, Entries: []Entry[float32]{
		{V: 1, RMin: 1, RMax: 1}, {V: 2, RMin: 2, RMax: 9}, {V: 3, RMin: 3, RMax: 3}, {V: 4, RMin: 10, RMax: 10},
	}}
	ordered := &Summary[float32]{N: 10, Eps: 0.2, Entries: []Entry[float32]{
		{V: 1, RMin: 1, RMax: 1}, {V: 2, RMin: 2, RMax: 3}, {V: 3, RMin: 3, RMax: 3}, {V: 4, RMin: 10, RMax: 10},
	}}
	for v := uint16(wire.MinVersion); v <= wire.Version; v++ {
		r := wire.NewReader(summaryBlob(v, dip))
		r.Header(wire.FamilyQuantile, wire.TagFloat32)
		dec := Decode[float32](r)
		err := r.Finish()
		if v < 3 {
			if err != nil || !reflect.DeepEqual(dec, ordered) {
				t.Fatalf("version %d: decoded %+v (%v), want %+v", v, dec, err, ordered)
			}
		} else if !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("version %d: unordered bounds gave %v, want ErrCorrupt", v, err)
		}
	}
}
