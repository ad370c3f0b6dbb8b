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
//   - accepted input is canonical: Marshal(Unmarshal(data)) is bit-identical
//     to data, at every fixed point;
//   - a decode → encode → decode cycle preserves every query answer.
//
// Seeded with the committed goldens, boundary-value snapshots (zero,
// MaxUint64, negative and signed-zero floats), and corrupt variants.
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
	qe := eng.NewQuantileEstimator(0.1, 8)
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

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip[float32](t, data)
		fuzzRoundTrip[uint64](t, data)
	})
}

// FuzzKeyedSnapshotRoundTrip is the keyed decoder's fuzz contract, parallel
// to FuzzSnapshotRoundTrip but through UnmarshalKeyedSnapshot — the keyed
// family carries two type tags, two key tiers with cross-tier invariants,
// and a nested oracle blob, so it has its own accept/reject surface.
// Unkeyed goldens ride along as seeds: they must be rejected as a foreign
// family, never decoded.
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
	if !bytes.Equal(blob, data) {
		t.Fatalf("keyed: re-marshal of accepted input is not bit-identical (%d vs %d bytes)", len(blob), len(data))
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
	if !bytes.Equal(blob, data) {
		t.Fatalf("%s: re-marshal of accepted input is not bit-identical (%d vs %d bytes)", typeName[T](), len(blob), len(data))
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
