package gpustream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"gpustream/internal/frequency"
	"gpustream/internal/frugal"
	"gpustream/internal/quantile"
	"gpustream/internal/wire"
)

// wireSentinels are the classification errors every decode failure must
// wrap (and the fuzz target enforces the same).
var wireSentinels = []error{
	wire.ErrBadMagic, wire.ErrVersion, wire.ErrValueType,
	wire.ErrFamily, wire.ErrTruncated, wire.ErrCorrupt,
}

func isWireError(err error) bool {
	for _, sentinel := range wireSentinels {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// TestUnmarshalTruncatedInput cuts every golden blob — both value types of
// every family, the keyed pair included, and the goldens of every older
// version under testdata/compat — at every offset: each proper prefix must
// fail with a wrapped sentinel (truncation, or corruption when the cut
// lands on a structural field) and no snapshot, and none may panic.
func TestUnmarshalTruncatedInput(t *testing.T) {
	t.Run("float32", testTruncatedInput[float32])
	t.Run("uint64", testTruncatedInput[uint64])
	t.Run("keyed-uint64-float32", testTruncatedKeyedInput[uint64, float32])
	t.Run("keyed-uint32-uint64", testTruncatedKeyedInput[uint32, uint64])
	for v := uint16(wire.MinVersion); v < wire.Version; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			t.Run("float32", func(t *testing.T) { testTruncatedOlderInput[float32](t, v) })
			t.Run("uint64", func(t *testing.T) { testTruncatedOlderInput[uint64](t, v) })
			t.Run("keyed-uint64-float32", func(t *testing.T) { testTruncatedOlderKeyedInput[uint64, float32](t, v) })
			t.Run("keyed-uint32-uint64", func(t *testing.T) { testTruncatedOlderKeyedInput[uint32, uint64](t, v) })
		})
	}
}

func testTruncatedOlderInput[T Value](t *testing.T, v uint16) {
	for _, family := range goldenFamilies {
		name := family + "." + typeName[T]() + ".snap"
		blob, _ := readVersionPair(t, v, name)
		for i := range blob {
			s, err := UnmarshalSnapshot[T](blob[:i])
			checkTruncated(t, fmt.Sprintf("v%d-%s", v, name), i, len(blob), s == nil, err)
		}
	}
}

func testTruncatedOlderKeyedInput[K, T Value](t *testing.T, v uint16) {
	name := "keyed." + typeName[K]() + "-" + typeName[T]() + ".snap"
	blob, _ := readVersionPair(t, v, name)
	for i := range blob {
		s, err := UnmarshalKeyedSnapshot[K, T](blob[:i])
		checkTruncated(t, fmt.Sprintf("v%d-%s", v, name), i, len(blob), s == nil, err)
	}
}

func testTruncatedInput[T Value](t *testing.T) {
	for name, snap := range goldenSnapshots[T](t) {
		blob := mustMarshal(t, snap)
		for i := range blob {
			s, err := UnmarshalSnapshot[T](blob[:i])
			checkTruncated(t, name, i, len(blob), s == nil, err)
		}
	}
}

func testTruncatedKeyedInput[K, T Value](t *testing.T) {
	blob := mustMarshalKeyed(t, goldenKeyedSnapshot[K, T](t))
	for i := range blob {
		s, err := UnmarshalKeyedSnapshot[K, T](blob[:i])
		checkTruncated(t, "keyed", i, len(blob), s == nil, err)
	}
}

func checkTruncated(t *testing.T, name string, cut, size int, gotNil bool, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: prefix %d of %d bytes decoded successfully", name, cut, size)
	}
	if !gotNil {
		t.Fatalf("%s: prefix %d returned a snapshot alongside the error", name, cut)
	}
	if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("%s: prefix %d: error %v wraps neither ErrTruncated nor ErrCorrupt", name, cut, err)
	}
}

// layout writes hand-crafted float32 snapshot bodies at one format
// version: the header, and the record lists whose layout changed between
// versions (fixed-width fields in version 1, varint deltas since 2).
type layout uint16

func (l layout) header(fam wire.Family) []byte {
	b := wire.AppendHeader(nil, fam, wire.TagFloat32)
	binary.LittleEndian.PutUint16(b[4:], uint16(l))
	return b
}

// freqEntries appends a frequency entry list of (value, freq, delta).
func (l layout) freqEntries(b []byte, es ...[3]float64) []byte {
	b = wire.AppendU32(b, uint32(len(es)))
	var vd wire.ValueDeltas[float32]
	for _, e := range es {
		v, freq, delta := float32(e[0]), int64(e[1]), int64(e[2])
		if l == 1 {
			b = wire.AppendI64(wire.AppendI64(wire.AppendValue(b, v), freq), delta)
		} else {
			b = wire.AppendVarint(wire.AppendVarint(vd.Append(b, v), freq), delta)
		}
	}
	return b
}

// summaryEntries appends a summary entry list of (value, rmin, rmax).
func (l layout) summaryEntries(b []byte, es ...[3]float64) []byte {
	b = wire.AppendU32(b, uint32(len(es)))
	var vd wire.ValueDeltas[float32]
	var rmin int64
	for _, e := range es {
		v, lo, hi := float32(e[0]), int64(e[1]), int64(e[2])
		if l == 1 {
			b = wire.AppendI64(wire.AppendI64(wire.AppendValue(b, v), lo), hi)
		} else {
			b = wire.AppendVarint(wire.AppendVarint(vd.Append(b, v), lo-rmin), hi-lo)
		}
		rmin = lo
	}
	return b
}

// bins appends a histogram bin list of (value, count).
func (l layout) bins(b []byte, bs ...[2]float64) []byte {
	b = wire.AppendU32(b, uint32(len(bs)))
	var vd wire.ValueDeltas[float32]
	for _, bin := range bs {
		v, count := float32(bin[0]), int64(bin[1])
		if l == 1 {
			b = wire.AppendI64(wire.AppendValue(b, v), count)
		} else {
			b = wire.AppendVarint(vd.Append(b, v), count)
		}
	}
	return b
}

type corruptCase struct {
	name string
	data []byte
	want error
}

// corruptCases is the hostile-input table at one format version, around
// valid, a well-formed frequency blob of that version. Each hand-crafted
// body stops right where the corruption lives, so the case pins the exact
// check that must fire.
func corruptCases(l layout, valid []byte) []corruptCase {
	mutate := func(off int, b byte) []byte {
		m := append([]byte(nil), valid...)
		m[off] = b
		return m
	}
	freq := func(n int64) []byte {
		return wire.AppendI64(wire.AppendF64(l.header(wire.FamilyFrequency), 0.1), n)
	}
	quant := func() []byte { return wire.AppendF64(l.header(wire.FamilyQuantile), 0.1) }
	summary := func(n int64) []byte { // a quantile body up to its summary's count
		return wire.AppendI64(wire.AppendF64(wire.AppendU8(quant(), 1), 0.1), n)
	}
	winFreq := func(w int64) []byte {
		return wire.AppendI64(wire.AppendF64(l.header(wire.FamilyWindowFrequency), 0.1), w)
	}
	// count, partialCount, the partial bins, then the pane count.
	winFreqBody := func(count, partialCount int64, partial [][2]float64, panes uint32) []byte {
		b := l.bins(wire.AppendI64(wire.AppendI64(winFreq(100), count), partialCount), partial...)
		return wire.AppendU32(b, panes)
	}
	winQuant := wire.AppendI64(wire.AppendF64(l.header(wire.FamilyWindowQuantile), 0.1), 100) // w
	winQuant = wire.AppendU8(wire.AppendI64(winQuant, 0), 0)                                  // count, no partial
	frugal := func(n int64, count uint32) []byte {
		return wire.AppendU32(wire.AppendI64(l.header(wire.FamilyFrugal), n), count)
	}
	// A fresh direction byte (0x00) on a tracker over a non-empty stream:
	// every tracker steps on every observation, so freshness must match n==0.
	frugalStaleFresh := wire.AppendU8(wire.AppendValue(wire.AppendF64(frugal(5, 1), 0.5), float32(1)), 0x00)
	frugalUnsorted := frugal(5, 2)
	for _, phi := range []float64{0.9, 0.5} { // strictly descending: must be rejected
		frugalUnsorted = wire.AppendU8(wire.AppendValue(wire.AppendF64(frugalUnsorted, phi), float32(1)), 0x40)
	}

	cases := []corruptCase{
		{"empty input", nil, wire.ErrTruncated},
		{"short header", valid[:wire.HeaderSize-1], wire.ErrTruncated},
		{"bad magic", mutate(0, 'X'), wire.ErrBadMagic},
		{"future version", mutate(4, 99), wire.ErrVersion},
		{"unknown family", mutate(7, 200), wire.ErrFamily},
		{"trailing bytes", append(append([]byte(nil), valid...), 0, 0, 0), wire.ErrCorrupt},
		{"frequency NaN eps", wire.AppendU32(wire.AppendI64(wire.AppendF64(l.header(wire.FamilyFrequency), math.NaN()), 10), 0), wire.ErrCorrupt},
		{"frequency count overflow", wire.AppendU32(freq(10), math.MaxUint32), wire.ErrTruncated},
		{"frequency negative n", wire.AppendU32(freq(-1), 0), wire.ErrCorrupt},
		// Strictly descending: must be rejected.
		{"frequency unsorted entries", l.freqEntries(freq(10), [3]float64{5, 1, 0}, [3]float64{1, 1, 0}), wire.ErrCorrupt},
		{"frequency negative freq", l.freqEntries(freq(10), [3]float64{5, -7, 0}), wire.ErrCorrupt},
		{"frequency negative delta", l.freqEntries(freq(10), [3]float64{5, 1, -3}), wire.ErrCorrupt},
		{"frequency freq above n", l.freqEntries(freq(10), [3]float64{5, 11, 0}), wire.ErrCorrupt},
		{"quantile negative eps", wire.AppendU8(wire.AppendF64(l.header(wire.FamilyQuantile), -1), 0), wire.ErrCorrupt},
		// An empty summary, at eps −0.5.
		{"quantile summary negative eps", wire.AppendU32(wire.AppendI64(wire.AppendF64(wire.AppendU8(quant(), 1), -0.5), 0), 0), wire.ErrCorrupt},
		{"quantile bad present flag", wire.AppendU8(quant(), 7), wire.ErrCorrupt},
		{"quantile summary count overflow", wire.AppendU32(summary(10), math.MaxUint32), wire.ErrTruncated},
		// N = 5, but RMin = 10 > N.
		{"quantile impossible ranks", l.summaryEntries(summary(5), [3]float64{1, 10, 12}), wire.ErrCorrupt},
		// N = 5 with no entries.
		{"quantile headless summary", wire.AppendU32(summary(5), 0), wire.ErrCorrupt},
		// The first entry's rank is at least 5, the second's, a larger value,
		// at most 3: no order of the bounds holds both.
		{"summary rank bounds contradict", l.summaryEntries(summary(10), [3]float64{1, 5, 5}, [3]float64{2, 2, 3}), wire.ErrCorrupt},
		{"window zero width", winFreq(0), wire.ErrCorrupt},
		// w, count, partialCount, then the partial bins' count.
		{"window bin count overflow", wire.AppendU32(wire.AppendI64(wire.AppendI64(winFreq(100), 0), 0), math.MaxUint32), wire.ErrTruncated},
		{"window negative bin count", l.bins(wire.AppendI64(wire.AppendI64(winFreq(100), 0), 0), [2]float64{1, 2}, [2]float64{3, -1}), wire.ErrCorrupt},
		// One pane of total 2 holding a bin of count 1000.
		{"window pane bins above total", l.bins(wire.AppendI64(winFreqBody(2, 0, nil, 1), 2), [2]float64{5, 1000}), wire.ErrCorrupt},
		{"window partial bins above partial count", winFreqBody(1, 1, [][2]float64{{5, 3}}, 0), wire.ErrCorrupt},
		{"window pane count overflow", wire.AppendU32(winQuant, math.MaxUint32), wire.ErrTruncated},
		{"frugal tracker count overflow", frugal(10, math.MaxUint32), wire.ErrTruncated},
		{"frugal negative n", frugal(-1, 1), wire.ErrCorrupt},
		{"frugal no trackers", frugal(10, 0), wire.ErrCorrupt},
		{"frugal fresh tracker on non-empty stream", frugalStaleFresh, wire.ErrCorrupt},
		{"frugal unsorted trackers", frugalUnsorted, wire.ErrCorrupt},
	}
	if l >= 3 {
		// RMax dips from 9 to 3, as GK's did before ToSummary ordered it:
		// an older version's decoder orders it, version 3 writes none.
		dip := l.summaryEntries(summary(10), [3]float64{1, 1, 1}, [3]float64{2, 2, 9}, [3]float64{3, 3, 3}, [3]float64{4, 10, 10})
		cases = append(cases, corruptCase{"summary rank bounds out of order", dip, wire.ErrCorrupt})
	}
	return cases
}

// varintCases are the hostile varints, each in a frequency entry's value
// field at the current format version.
func varintCases() []corruptCase {
	entry := func(value ...byte) []byte { // a one-entry body up to the value field
		b := wire.AppendU32(wire.AppendI64(wire.AppendF64(wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagFloat32), 0.1), 10), 1)
		return append(b, value...)
	}
	ten := bytes.Repeat([]byte{0xFF}, 9)
	return []corruptCase{
		// 0x80 0x00 is 0 in two bytes: a second encoding of a one-byte value.
		{"overlong varint", entry(0x80, 0x00, 2, 0), wire.ErrCorrupt},
		{"11-byte varint", entry(append(append([]byte(nil), ten...), 0x80, 0x01)...), wire.ErrCorrupt},
		// 2^32 is a valid varint, but no float32 key is that far from 0.
		{"key beyond a 32-bit type's width", wire.AppendU8(wire.AppendU8(binary.AppendUvarint(entry(), 1<<32), 2), 0), wire.ErrCorrupt},
		// Three bytes pass the count's check, and are all continuation bytes.
		{"buffer ends mid-varint", entry(0x80, 0x80, 0x80), wire.ErrTruncated},
	}
}

func checkCorrupt(t *testing.T, data []byte, want error) {
	t.Helper()
	s, err := UnmarshalSnapshot[float32](data)
	if err == nil {
		t.Fatal("decoded successfully")
	}
	if s != nil {
		t.Fatal("returned a snapshot alongside the error")
	}
	if !errors.Is(err, want) {
		t.Fatalf("error %v does not wrap %v", err, want)
	}
}

// TestUnmarshalCorruptInput is the hostile-input table: malformed headers,
// mismatched tags, overflowed length fields, malformed varints, violated
// structural invariants. Every case must return an error wrapping the
// advertised sentinel — no panics, and (for the overflowed lengths) no
// allocation sized by the bogus field. The table runs at the current
// format version and, under v1 and v2, at every older version the
// decoders still read.
func TestUnmarshalCorruptInput(t *testing.T) {
	valid := mustMarshal(t, goldenSnapshots[float32](t)["frequency"])
	for _, tc := range append(corruptCases(wire.Version, valid), varintCases()...) {
		t.Run(tc.name, func(t *testing.T) { checkCorrupt(t, tc.data, tc.want) })
	}
	for v := uint16(wire.MinVersion); v < wire.Version; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			old, _ := readVersionPair(t, v, "frequency.float32.snap")
			if _, err := UnmarshalSnapshot[float32](old); err != nil {
				t.Fatalf("the valid version-%d blob: %v", v, err)
			}
			for _, tc := range corruptCases(layout(v), old) {
				t.Run(tc.name, func(t *testing.T) { checkCorrupt(t, tc.data, tc.want) })
			}
		})
	}

	t.Run("value type mismatch", func(t *testing.T) {
		// float32 blob read at every other instantiation, including uint32
		// (same encoded width — only the tag tells them apart).
		if _, err := UnmarshalSnapshot[uint32](valid); !errors.Is(err, wire.ErrValueType) {
			t.Fatalf("uint32: %v", err)
		}
		if _, err := UnmarshalSnapshot[uint64](valid); !errors.Is(err, wire.ErrValueType) {
			t.Fatalf("uint64: %v", err)
		}
	})

	t.Run("family mismatch at package decoder", func(t *testing.T) {
		// The root dispatcher routes by family; the per-family decoders must
		// still reject a foreign family themselves.
		quantBlob := mustMarshal(t, goldenSnapshots[float32](t)["quantile"])
		if _, err := frequency.UnmarshalSnapshot[float32](quantBlob); !errors.Is(err, wire.ErrFamily) {
			t.Fatalf("frequency decoder on quantile blob: %v", err)
		}
		if _, err := quantile.UnmarshalSnapshot[float32](valid); !errors.Is(err, wire.ErrFamily) {
			t.Fatalf("quantile decoder on frequency blob: %v", err)
		}
		if _, err := frugal.UnmarshalSnapshot[float32](valid); !errors.Is(err, wire.ErrFamily) {
			t.Fatalf("frugal decoder on frequency blob: %v", err)
		}
	})

	t.Run("keyed blob at the unkeyed entry point", func(t *testing.T) {
		// A keyed blob is a known family the unkeyed dispatcher cannot
		// produce a Snapshot[T] for: it must fail with ErrFamily (steering
		// the caller to UnmarshalKeyedSnapshot), and the keyed decoder must
		// reject unkeyed blobs the same way.
		keyedBlob := mustMarshalKeyed(t, goldenKeyedSnapshot[uint64, float32](t))
		s, err := UnmarshalSnapshot[float32](keyedBlob)
		if s != nil || !errors.Is(err, wire.ErrFamily) {
			t.Fatalf("unkeyed decoder on keyed blob: (%v, %v), want wrapped ErrFamily", s, err)
		}
		if _, err := UnmarshalKeyedSnapshot[uint64, float32](valid); !errors.Is(err, wire.ErrFamily) {
			t.Fatalf("keyed decoder on frequency blob: %v", err)
		}
	})

	t.Run("overflowed length does not drive allocation", func(t *testing.T) {
		// The count field claims 4G entries; decode must fail before sizing
		// anything by it. A handful of allocations (reader, error wrapping)
		// is fine — hundreds of megabytes is not.
		freqOverflow := wire.AppendU32(
			wire.AppendI64(wire.AppendF64(wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagFloat32), 0.1), 10),
			math.MaxUint32)
		allocs := testing.AllocsPerRun(20, func() {
			_, err := UnmarshalSnapshot[float32](freqOverflow)
			if err == nil {
				t.Fatal("decoded")
			}
		})
		if allocs > 16 {
			t.Fatalf("%v allocations decoding an overflowed length field", allocs)
		}

		// A count the remaining bytes can just hold does size the entry
		// slice before the entries fail. A version-2 entry takes at least 3
		// bytes on the wire and 24 in memory, so that allocation is bounded
		// by ~8 bytes per input byte (wire.MinRecord); version 1's 20-byte
		// entries bounded it near 1.2. One entry more fails at the count.
		const entries = 4096
		for _, tc := range []struct {
			name    string
			l       layout
			count   uint32
			ceiling float64
		}{
			{"count that just passes", wire.Version, entries, 8.25},
			{"one entry past", wire.Version, entries + 1, 0.5},
			{"v1 count that just passes", 1, entries, 1.25},
		} {
			r := wire.NewReader(tc.l.header(wire.FamilyFrequency))
			r.Header(wire.FamilyFrequency, wire.TagFloat32)
			entry := wire.MinRecord[float32](r, 2)
			if tc.l == wire.Version && entry != 3 || tc.l == 1 && entry != 20 {
				t.Fatalf("%s: a %d-byte minimum entry", tc.name, entry)
			}
			// All-zero entries: the second repeats the first's value.
			blob := wire.AppendU32(wire.AppendI64(wire.AppendF64(tc.l.header(wire.FamilyFrequency), 0.1), 10), tc.count)
			blob = append(blob, make([]byte, entries*entry)...)
			if got := bytesPerInputByte(t, blob); got > tc.ceiling {
				t.Errorf("%s: decode allocated %.2f bytes per input byte, want ≤ %.2f", tc.name, got, tc.ceiling)
			}
		}
	})
}

// bytesPerInputByte reports the fewest bytes a failing decode of data
// allocated over a few runs, per byte of data.
func bytesPerInputByte(t *testing.T, data []byte) float64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		_, err := UnmarshalSnapshot[float32](data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("decoded")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(least) / float64(len(data))
}
