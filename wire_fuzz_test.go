package gpustream

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gpustream/internal/wire"
)

// FuzzSnapshotRoundTrip drives the decoder with arbitrary bytes. The
// contract under fuzz:
//
//   - rejected input fails with a wrapped wire sentinel, never a panic;
//   - accepted input at the current format version is canonical:
//     Marshal(Unmarshal(data)) is bit-identical to data, at every fixed
//     point; accepted older input (versions 1 and 2) re-marshals to a
//     current-version blob that decodes to the same snapshot (marshal encodes every field, so
//     equal bytes on the next cycle mean equal snapshots);
//   - a decode → encode → decode cycle preserves every query answer.
//
// Seeded with the committed goldens, boundary-value snapshots (zero,
// MaxUint64, negative and signed-zero floats), corrupt variants, and last
// the older blobs kept under testdata/compat.
func FuzzSnapshotRoundTrip(f *testing.F) {
	if entries, err := os.ReadDir(filepath.Join("testdata", "snapshots")); err == nil {
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join("testdata", "snapshots", e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if len(data) > 11 {
				f.Add(data[:len(data)/2]) // truncated variant
				mut := append([]byte(nil), data...)
				mut[11] ^= 0xFF // corrupt one body byte
				f.Add(mut)
			}
		}
	}

	// Boundary values of the uint64 key space.
	blob := wire.AppendHeader(nil, wire.FamilyFrequency, wire.TagUint64)
	blob = wire.AppendU32(wire.AppendI64(wire.AppendF64(blob, 0.1), 10), 3) // eps, n, count
	for _, e := range []struct {
		value       uint64
		freq, delta int64
	}{{0, 3, 1}, {1 << 63, 2, 0}, {math.MaxUint64, 5, 2}} {
		blob = wire.AppendI64(wire.AppendI64(wire.AppendValue(blob, e.value), e.freq), e.delta)
	}
	f.Add(blob)

	// Negative floats and the signed zero, through a real estimator.
	eng := New(BackendCPU)
	qe := eng.NewQuantileEstimator(0.1)
	if err := qe.ProcessSlice([]float32{-3.4e38, -1, float32(math.Copysign(0, -1)), 0, 1, 3.4e38}); err != nil {
		f.Fatal(err)
	}
	f.Add(mustMarshal(f, qe.Snapshot()))

	// Frugal trackers driven to extreme values: the control byte's step
	// exponent saturates near the top of the float range, so the encoded
	// (est, ctl) pairs sit at the field boundaries the decoder validates.
	fr := eng.NewFrugalEstimator(WithPhis(0.01, 0.5, 0.99), WithFrugalSeed(11))
	if err := fr.ProcessSlice([]float32{-3.4e38, 3.4e38, 0, -1, 1, 3.4e38}); err != nil {
		f.Fatal(err)
	}
	f.Add(mustMarshal(f, fr.Snapshot()))

	// A keyed blob: the unkeyed decoder must classify it as a foreign
	// family (wire.ErrFamily), and mutants of it probe that dispatch arm.
	f.Add(mustMarshalKeyed(f, goldenKeyedSnapshot[uint64, float32](f)))
	addCompatSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip[float32](t, data)
		fuzzRoundTrip[uint64](t, data)
	})
}

// addCompatSeeds adds every blob under testdata/compat: goldens of older
// format versions and of older estimators.
func addCompatSeeds(f *testing.F) {
	entries, err := os.ReadDir(filepath.Join("testdata", "compat"))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "compat", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// isCurrentVersion reports whether data's header is at the format version
// this build writes; only such input must re-marshal to itself.
func isCurrentVersion(data []byte) bool {
	h, err := wire.ReadHeader(data)
	return err == nil && h.Version == wire.Version
}

// FuzzKeyedSnapshotRoundTrip is the keyed decoder's fuzz contract, parallel
// to FuzzSnapshotRoundTrip but through UnmarshalKeyedSnapshot — the keyed
// family carries two type tags, two key tiers with cross-tier invariants,
// and a nested oracle blob, so it has its own accept/reject surface.
// Unkeyed goldens ride along as seeds: they must be rejected as a foreign
// family, never decoded. The older keyed goldens under testdata/compat
// come last.
func FuzzKeyedSnapshotRoundTrip(f *testing.F) {
	if entries, err := os.ReadDir(filepath.Join("testdata", "snapshots")); err == nil {
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join("testdata", "snapshots", e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if len(data) > wire.HeaderSize+2 {
				f.Add(data[:len(data)/2]) // truncated variant
				mut := append([]byte(nil), data...)
				mut[wire.HeaderSize+1] ^= 0xFF // corrupt one body byte
				f.Add(mut)
			}
		}
	}

	addCompatSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzKeyedRoundTrip[uint64, float32](t, data)
		fuzzKeyedRoundTrip[uint32, uint64](t, data)
	})
}

func fuzzKeyedRoundTrip[K, T Value](t *testing.T, data []byte) {
	s, err := UnmarshalKeyedSnapshot[K, T](data)
	if err != nil {
		if s != nil {
			t.Fatalf("keyed: error %v returned alongside a snapshot", err)
		}
		if !isWireError(err) {
			t.Fatalf("keyed: error %v wraps no wire sentinel", err)
		}
		return
	}
	blob, err := MarshalKeyedSnapshot(s)
	if err != nil {
		t.Fatalf("keyed: marshal of accepted input: %v", err)
	}
	if isCurrentVersion(data) != bytes.Equal(blob, data) || !isCurrentVersion(blob) {
		t.Fatalf("keyed: re-marshal of accepted input is %d bytes from %d (bit-identical only at the current version)", len(blob), len(data))
	}
	s2, err := UnmarshalKeyedSnapshot[K, T](blob)
	if err != nil {
		t.Fatalf("keyed: re-unmarshal: %v", err)
	}
	assertSameKeyedAnswers(t, s, s2)
	if blob2 := mustMarshalKeyed(t, s2); !bytes.Equal(blob, blob2) {
		t.Fatal("keyed: marshal is not deterministic across decode cycles")
	}
}

func fuzzRoundTrip[T Value](t *testing.T, data []byte) {
	s, err := UnmarshalSnapshot[T](data)
	if err != nil {
		if s != nil {
			t.Fatalf("%s: error %v returned alongside a snapshot", typeName[T](), err)
		}
		if !isWireError(err) {
			t.Fatalf("%s: error %v wraps no wire sentinel", typeName[T](), err)
		}
		return
	}
	blob, err := MarshalSnapshot(s)
	if err != nil {
		t.Fatalf("%s: marshal of accepted input: %v", typeName[T](), err)
	}
	if isCurrentVersion(data) != bytes.Equal(blob, data) || !isCurrentVersion(blob) {
		t.Fatalf("%s: re-marshal of accepted input is %d bytes from %d (bit-identical only at the current version)", typeName[T](), len(blob), len(data))
	}
	s2, err := UnmarshalSnapshot[T](blob)
	if err != nil {
		t.Fatalf("%s: re-unmarshal: %v", typeName[T](), err)
	}
	assertSameAnswers(t, s, s2)
	if blob2 := mustMarshal(t, s2); !bytes.Equal(blob, blob2) {
		t.Fatalf("%s: marshal is not deterministic across decode cycles", typeName[T]())
	}
}
