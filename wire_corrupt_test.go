package gpustream

import (
	"errors"
	"math"
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
// every family, the keyed pair included — at every offset: each proper
// prefix must fail with a wrapped sentinel (truncation, or corruption when
// the cut lands on a structural field) and no snapshot, and none may panic.
func TestUnmarshalTruncatedInput(t *testing.T) {
	t.Run("float32", testTruncatedInput[float32])
	t.Run("uint64", testTruncatedInput[uint64])
	t.Run("keyed-uint64-float32", testTruncatedKeyedInput[uint64, float32])
	t.Run("keyed-uint32-uint64", testTruncatedKeyedInput[uint32, uint64])
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

// TestUnmarshalCorruptInput is the hostile-input table: malformed headers,
// mismatched tags, overflowed length fields, violated structural invariants.
// Every case must return an error wrapping the advertised sentinel — no
// panics, and (for the overflowed lengths) no allocation sized by the bogus
// field.
func TestUnmarshalCorruptInput(t *testing.T) {
	valid := mustMarshal(t, goldenSnapshots[float32](t)["frequency"])

	mutate := func(off int, b byte) []byte {
		m := append([]byte(nil), valid...)
		m[off] = b
		return m
	}
	// Hand-crafted bodies: each stops right where the corruption lives, so
	// the case pins the exact check that must fire.
	freqOverflow := wire.AppendU32(
		wire.AppendI64(wire.AppendF64(wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagFloat32), 0.1), 10),
		math.MaxUint32)
	freqNegativeN := wire.AppendU32(
		wire.AppendI64(wire.AppendF64(wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagFloat32), 0.1), -1),
		0)
	freqUnsorted := wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagFloat32)
	freqUnsorted = wire.AppendF64(freqUnsorted, 0.1)
	freqUnsorted = wire.AppendI64(freqUnsorted, 10)
	freqUnsorted = wire.AppendU32(freqUnsorted, 2)
	for _, v := range []float32{5, 1} { // strictly descending: must be rejected
		freqUnsorted = wire.AppendValue(freqUnsorted, v)
		freqUnsorted = wire.AppendI64(freqUnsorted, 1)
		freqUnsorted = wire.AppendI64(freqUnsorted, 0)
	}
	quantBadFlag := wire.AppendU8(
		wire.AppendF64(wire.AppendHeader(nil, wire.FamilyQuantile, wire.TagFloat32), 0.1), 7)
	quantOverflow := wire.AppendHeader(nil, wire.FamilyQuantile, wire.TagFloat32)
	quantOverflow = wire.AppendF64(quantOverflow, 0.1)
	quantOverflow = wire.AppendU8(quantOverflow, 1)
	quantOverflow = wire.AppendF64(quantOverflow, 0.1) // summary eps
	quantOverflow = wire.AppendI64(quantOverflow, 10)  // summary n
	quantOverflow = wire.AppendU32(quantOverflow, math.MaxUint32)
	badRanks := wire.AppendHeader(nil, wire.FamilyQuantile, wire.TagFloat32)
	badRanks = wire.AppendF64(badRanks, 0.1)
	badRanks = wire.AppendU8(badRanks, 1)
	badRanks = wire.AppendF64(badRanks, 0.1)
	badRanks = wire.AppendI64(badRanks, 5) // N = 5 ...
	badRanks = wire.AppendU32(badRanks, 1)
	badRanks = wire.AppendValue(badRanks, float32(1))
	badRanks = wire.AppendI64(badRanks, 10) // ... but RMin = 10 > N
	badRanks = wire.AppendI64(badRanks, 12)
	headlessSummary := wire.AppendHeader(nil, wire.FamilyQuantile, wire.TagFloat32)
	headlessSummary = wire.AppendF64(headlessSummary, 0.1)
	headlessSummary = wire.AppendU8(headlessSummary, 1)
	headlessSummary = wire.AppendF64(headlessSummary, 0.1)
	headlessSummary = wire.AppendI64(headlessSummary, 5) // N = 5 with no entries
	headlessSummary = wire.AppendU32(headlessSummary, 0)
	winZeroW := wire.AppendI64(
		wire.AppendF64(wire.AppendHeader(nil, wire.FamilyWindowFrequency, wire.TagFloat32), 0.1), 0)
	winOverflow := wire.AppendHeader(nil, wire.FamilyWindowFrequency, wire.TagFloat32)
	winOverflow = wire.AppendF64(winOverflow, 0.1)
	winOverflow = wire.AppendI64(winOverflow, 100) // w
	winOverflow = wire.AppendI64(winOverflow, 0)   // count
	winOverflow = wire.AppendI64(winOverflow, 0)   // partialCount
	winOverflow = wire.AppendU32(winOverflow, math.MaxUint32)
	winQuantOverflow := wire.AppendHeader(nil, wire.FamilyWindowQuantile, wire.TagFloat32)
	winQuantOverflow = wire.AppendF64(winQuantOverflow, 0.1)
	winQuantOverflow = wire.AppendI64(winQuantOverflow, 100) // w
	winQuantOverflow = wire.AppendI64(winQuantOverflow, 0)   // count
	winQuantOverflow = wire.AppendU8(winQuantOverflow, 0)    // no partial
	winQuantOverflow = wire.AppendU32(winQuantOverflow, math.MaxUint32)
	frugalOverflow := wire.AppendU32(
		wire.AppendI64(wire.AppendHeader(nil, wire.FamilyFrugal, wire.TagFloat32), 10),
		math.MaxUint32)
	frugalNegativeN := wire.AppendU32(
		wire.AppendI64(wire.AppendHeader(nil, wire.FamilyFrugal, wire.TagFloat32), -1), 1)
	frugalNoTrackers := wire.AppendU32(
		wire.AppendI64(wire.AppendHeader(nil, wire.FamilyFrugal, wire.TagFloat32), 10), 0)
	// A fresh direction byte (0x00) on a tracker over a non-empty stream:
	// every tracker steps on every observation, so freshness must match n==0.
	frugalStaleFresh := wire.AppendHeader(nil, wire.FamilyFrugal, wire.TagFloat32)
	frugalStaleFresh = wire.AppendI64(frugalStaleFresh, 5)
	frugalStaleFresh = wire.AppendU32(frugalStaleFresh, 1)
	frugalStaleFresh = wire.AppendF64(frugalStaleFresh, 0.5)
	frugalStaleFresh = wire.AppendValue(frugalStaleFresh, float32(1))
	frugalStaleFresh = wire.AppendU8(frugalStaleFresh, 0x00)
	frugalUnsorted := wire.AppendHeader(nil, wire.FamilyFrugal, wire.TagFloat32)
	frugalUnsorted = wire.AppendI64(frugalUnsorted, 5)
	frugalUnsorted = wire.AppendU32(frugalUnsorted, 2)
	for _, phi := range []float64{0.9, 0.5} { // strictly descending: must be rejected
		frugalUnsorted = wire.AppendF64(frugalUnsorted, phi)
		frugalUnsorted = wire.AppendValue(frugalUnsorted, float32(1))
		frugalUnsorted = wire.AppendU8(frugalUnsorted, 0x40)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty input", nil, wire.ErrTruncated},
		{"short header", valid[:wire.HeaderSize-1], wire.ErrTruncated},
		{"bad magic", mutate(0, 'X'), wire.ErrBadMagic},
		{"future version", mutate(4, 99), wire.ErrVersion},
		{"unknown family", mutate(7, 200), wire.ErrFamily},
		{"trailing bytes", append(append([]byte(nil), valid...), 0, 0, 0), wire.ErrCorrupt},
		{"frequency count overflow", freqOverflow, wire.ErrTruncated},
		{"frequency negative n", freqNegativeN, wire.ErrCorrupt},
		{"frequency unsorted entries", freqUnsorted, wire.ErrCorrupt},
		{"quantile bad present flag", quantBadFlag, wire.ErrCorrupt},
		{"quantile summary count overflow", quantOverflow, wire.ErrTruncated},
		{"quantile impossible ranks", badRanks, wire.ErrCorrupt},
		{"quantile headless summary", headlessSummary, wire.ErrCorrupt},
		{"window zero width", winZeroW, wire.ErrCorrupt},
		{"window bin count overflow", winOverflow, wire.ErrTruncated},
		{"window pane count overflow", winQuantOverflow, wire.ErrTruncated},
		{"frugal tracker count overflow", frugalOverflow, wire.ErrTruncated},
		{"frugal negative n", frugalNegativeN, wire.ErrCorrupt},
		{"frugal no trackers", frugalNoTrackers, wire.ErrCorrupt},
		{"frugal fresh tracker on non-empty stream", frugalStaleFresh, wire.ErrCorrupt},
		{"frugal unsorted trackers", frugalUnsorted, wire.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := UnmarshalSnapshot[float32](tc.data)
			if err == nil {
				t.Fatal("decoded successfully")
			}
			if s != nil {
				t.Fatal("returned a snapshot alongside the error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
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
		allocs := testing.AllocsPerRun(20, func() {
			_, err := UnmarshalSnapshot[float32](freqOverflow)
			if err == nil {
				t.Fatal("decoded")
			}
		})
		if allocs > 16 {
			t.Fatalf("%v allocations decoding an overflowed length field", allocs)
		}
	})
}
