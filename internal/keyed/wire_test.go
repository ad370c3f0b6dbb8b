package keyed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/frequency"
	"gpustream/internal/summary"
	"gpustream/internal/wire"
)

// populated returns a snapshot with both tiers occupied: zipf keys so the
// heavy head promotes and the tail stays frugal.
func populated(t *testing.T) *Snapshot[uint64, float64] {
	t.Helper()
	e := newKeyed(0.05, 0.02, WithSeed(13))
	keys, vals := zipfStream(17, 20_000, 1.5, 200)
	if err := e.ProcessSlice(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.PromotedKeys() == 0 || s.FrugalKeys() == 0 {
		t.Fatalf("setup: want both tiers occupied, got %d promoted / %d frugal",
			s.PromotedKeys(), s.FrugalKeys())
	}
	return s
}

func TestWireRoundTrip(t *testing.T) {
	s := populated(t)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot[uint64, float64](data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phi() != s.Phi() || got.Support() != s.Support() ||
		got.Count() != s.Count() || got.Promotions() != s.Promotions() ||
		got.Keys() != s.Keys() || got.FrugalKeys() != s.FrugalKeys() ||
		got.PromotedKeys() != s.PromotedKeys() {
		t.Fatal("round-trip changed snapshot metadata")
	}
	for _, f := range s.frugal[:10] {
		for _, phi := range []float64{0.25, 0.5, 0.75} {
			a, okA := s.Quantile(f.Key, phi)
			b, okB := got.Quantile(f.Key, phi)
			if okA != okB || a != b {
				t.Fatalf("key %d phi %v: %v/%v vs %v/%v", f.Key, phi, a, okA, b, okB)
			}
		}
	}
	for _, p := range s.promo {
		a, _ := s.Quantile(p.Key, 0.5)
		b, okB := got.Quantile(p.Key, 0.5)
		if !okB || a != b {
			t.Fatalf("promoted key %d: %v vs %v (ok=%v)", p.Key, a, b, okB)
		}
		if !got.Promoted(p.Key) {
			t.Fatalf("promoted key %d demoted by round-trip", p.Key)
		}
	}
	if ca, okA := s.KeyCount(s.promo[0].Key); true {
		if cb, okB := got.KeyCount(s.promo[0].Key); ca != cb || okA != okB {
			t.Fatalf("oracle count changed: %d/%v vs %d/%v", ca, okA, cb, okB)
		}
	}

	// Canonical: marshal of the decoded snapshot reproduces the bytes.
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encoding is not canonical")
	}
}

func TestWireRoundTripNarrowTypes(t *testing.T) {
	e := NewEstimator[uint32, float32](0.05, 0.05, cpusort.QuicksortSorter[uint32]{}, WithSeed(3))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		if err := e.Process(uint32(rng.Intn(64)), rng.Float32()*100); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot[uint32, float32](data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Keys() != s.Keys() || got.Count() != s.Count() {
		t.Fatal("narrow-type round-trip changed the snapshot")
	}
	// Both tag bytes are enforced independently.
	if _, err := UnmarshalSnapshot[uint32, float64](data); !errors.Is(err, wire.ErrValueType) {
		t.Fatalf("value-type mismatch: %v, want wire.ErrValueType", err)
	}
	if _, err := UnmarshalSnapshot[uint64, float32](data); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("key-type mismatch: %v, want wire.ErrCorrupt", err)
	}
}

// validParts returns building blocks for hand-assembled invalid snapshots: a
// decodable oracle snapshot over uint64 keys and a small valid GK summary.
func validParts(t *testing.T) (*frequency.Snapshot[uint64], *summary.Summary[float64]) {
	t.Helper()
	or := frequency.NewEstimator(0.1, cpusort.QuicksortSorter[uint64]{})
	for i := 0; i < 100; i++ {
		if err := or.Process(uint64(i % 5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := or.Flush(); err != nil {
		t.Fatal(err)
	}
	gk := summary.NewGK[float64](0.1)
	for i := 0; i < 50; i++ {
		gk.Insert(float64(i))
	}
	return or.Snapshot().(*frequency.Snapshot[uint64]), gk.ToSummary()
}

func TestWireCorrupt(t *testing.T) {
	oracle, sum := validParts(t)
	valid := func() *Snapshot[uint64, float64] {
		return &Snapshot[uint64, float64]{
			phi:        0.5,
			support:    0.1,
			n:          150,
			promotions: 1,
			frugal: []FrugalEntry[uint64, float64]{
				{Key: 1, Est: 10, Ctl: 0x41, Cnt: 3},
				{Key: 2, Est: 20, Ctl: 0x82, Cnt: 5},
			},
			promo:  []PromotedEntry[uint64, float64]{{Key: 7, Sum: sum}},
			oracle: oracle,
		}
	}
	// The baseline must decode cleanly, or the mutations below prove nothing.
	base, err := valid().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshot[uint64, float64](base); err != nil {
		t.Fatalf("baseline snapshot does not decode: %v", err)
	}

	structural := []struct {
		name string
		mut  func(*Snapshot[uint64, float64])
	}{
		{"phi above 1", func(s *Snapshot[uint64, float64]) { s.phi = 1.5 }},
		{"phi NaN", func(s *Snapshot[uint64, float64]) { s.phi = math.NaN() }},
		{"support zero", func(s *Snapshot[uint64, float64]) { s.support = 0 }},
		{"support above 1", func(s *Snapshot[uint64, float64]) { s.support = 1.5 }},
		{"negative n", func(s *Snapshot[uint64, float64]) { s.n = -1 }},
		{"negative promotions", func(s *Snapshot[uint64, float64]) { s.promotions = -1 }},
		{"frugal keys descending", func(s *Snapshot[uint64, float64]) {
			s.frugal[0].Key, s.frugal[1].Key = s.frugal[1].Key, s.frugal[0].Key
		}},
		{"frugal key duplicated", func(s *Snapshot[uint64, float64]) { s.frugal[1].Key = s.frugal[0].Key }},
		{"fresh control byte", func(s *Snapshot[uint64, float64]) { s.frugal[0].Ctl = 0x00 }},
		{"invalid sign bits", func(s *Snapshot[uint64, float64]) { s.frugal[0].Ctl = 0xC1 }},
		{"scale beyond max", func(s *Snapshot[uint64, float64]) { s.frugal[0].Ctl = 0x40 | 63 }},
		{"zero backing count", func(s *Snapshot[uint64, float64]) { s.frugal[0].Cnt = 0 }},
		{"key in both tiers", func(s *Snapshot[uint64, float64]) { s.promo[0].Key = s.frugal[1].Key }},
		{"empty promoted summary", func(s *Snapshot[uint64, float64]) {
			empty := *sum
			empty.Entries = nil
			empty.N = 0
			s.promo[0].Sum = &empty
		}},
	}
	for _, tc := range structural {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(s)
			data, err := s.MarshalBinary()
			if err != nil {
				return // refusing to encode is as good as refusing to decode
			}
			if _, err := UnmarshalSnapshot[uint64, float64](data); err == nil {
				t.Fatal("corrupt snapshot decoded without error")
			}
		})
	}

	// An oracle with no entries has the same body at every format version,
	// so only its header says which one it is. The outer blob is at the
	// current version; a version-1 oracle inside it is a mixed pair no
	// marshal writes, and would not re-marshal to itself.
	emptyOracle := valid()
	emptyOracle.oracle = frequency.NewEstimator(0.1, cpusort.QuicksortSorter[uint64]{}).Snapshot().(*frequency.Snapshot[uint64])
	mixed, err := emptyOracle.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshot[uint64, float64](mixed); err != nil {
		t.Fatalf("snapshot with an empty oracle does not decode: %v", err)
	}
	oracleBlob, err := emptyOracle.oracle.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(mixed[len(mixed)-len(oracleBlob)+4:], 1)

	raw := []struct {
		name string
		data []byte
		want error
	}{
		{"oracle at another format version", mixed, wire.ErrCorrupt},
		{"empty", nil, wire.ErrTruncated},
		{"header only", base[:wire.HeaderSize], wire.ErrTruncated},
		{"truncated tail", base[:len(base)-3], wire.ErrTruncated},
		{"trailing byte", append(append([]byte(nil), base...), 0), wire.ErrCorrupt},
		{"bad magic", mutate(base, 0, 0xFF), wire.ErrBadMagic},
		{"bad key tag", mutate(base, wire.HeaderSize, 0x5A), wire.ErrCorrupt},
	}
	for _, tc := range raw {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalSnapshot[uint64, float64](tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// mutate returns a copy of data with the byte at off XORed with x.
func mutate(data []byte, off int, x byte) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= x
	return out
}

// TestWireMergeAcrossProcesses drives the full cross-process path: snapshot,
// marshal, unmarshal "elsewhere", merge the decoded halves, and answer.
func TestWireMergeAcrossProcesses(t *testing.T) {
	keys, vals := zipfStream(23, 20_000, 1.4, 100)
	half := len(keys) / 2
	var blobs [][]byte
	for _, r := range [][2]int{{0, half}, {half, len(keys)}} {
		e := newKeyed(0.05, 0.02, WithSeed(21))
		if err := e.ProcessSlice(keys[r[0]:r[1]], vals[r[0]:r[1]]); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := e.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, data)
	}
	a, err := UnmarshalSnapshot[uint64, float64](blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalSnapshot[uint64, float64](blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != int64(len(keys)) {
		t.Fatalf("merged count %d, want %d", m.Count(), len(keys))
	}
	if _, ok := m.Quantile(keys[0], 0.5); !ok {
		t.Fatal("merged snapshot lost a key")
	}
	// The merge result is itself wire-clean.
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshot[uint64, float64](data); err != nil {
		t.Fatal(err)
	}
}
