package gpustream

import (
	"bytes"
	"testing"
)

// TestWireRoundTripMatrix drives every estimator family at every Value type
// through Marshal → Unmarshal and checks the decoded snapshot answers every
// query identically and re-marshals to identical bytes. This is the
// acceptance matrix for the wire format: 6 families × 6 value types.
func TestWireRoundTripMatrix(t *testing.T) {
	t.Run("float32", testWireRoundTrip[float32])
	t.Run("float64", testWireRoundTrip[float64])
	t.Run("uint32", testWireRoundTrip[uint32])
	t.Run("uint64", testWireRoundTrip[uint64])
	t.Run("int32", testWireRoundTrip[int32])
	t.Run("int64", testWireRoundTrip[int64])
}

func testWireRoundTrip[T Value](t *testing.T) {
	const (
		n   = 1200
		eps = 0.05
		w   = 300
	)
	data := goldenValues[T](n)
	eng := NewOf[T](BackendCPU)

	families := map[string]func(t *testing.T) Snapshot[T]{
		"frequency": func(t *testing.T) Snapshot[T] {
			est := eng.NewFrequencyEstimator(eps)
			ingest(t, est, data)
			return est.Snapshot()
		},
		"quantile": func(t *testing.T) Snapshot[T] {
			est := eng.NewQuantileEstimator(eps)
			ingest(t, est, data)
			return est.Snapshot()
		},
		"sliding-frequency": func(t *testing.T) Snapshot[T] {
			est := eng.NewSlidingFrequency(eps, w)
			ingest(t, est, data)
			return est.Snapshot()
		},
		"sliding-quantile": func(t *testing.T) Snapshot[T] {
			est := eng.NewSlidingQuantile(eps, w)
			ingest(t, est, data)
			return est.Snapshot()
		},
		"parallel-frequency": func(t *testing.T) Snapshot[T] {
			est := eng.NewParallelFrequencyEstimator(eps, 3)
			ingest(t, est, data)
			if err := est.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			return est.Snapshot()
		},
		"parallel-quantile": func(t *testing.T) Snapshot[T] {
			est := eng.NewParallelQuantileEstimator(eps, 3)
			ingest(t, est, data)
			if err := est.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			return est.Snapshot()
		},
	}

	for name, build := range families {
		t.Run(name, func(t *testing.T) {
			snap := build(t)
			blob := mustMarshal(t, snap)
			dec, err := UnmarshalSnapshot[T](blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			assertSameAnswers(t, snap, dec)
			if re := mustMarshal(t, dec); !bytes.Equal(re, blob) {
				t.Fatal("unmarshal then marshal is not the identity")
			}
		})
	}
}

func ingest[T Value](t *testing.T, est Estimator[T], data []T) {
	t.Helper()
	if err := est.ProcessSlice(data); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := est.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestWireRoundTripEmptySnapshots pins the wire behavior of snapshots over
// empty streams: every family marshals, round-trips, and keeps answering
// (with ok=false where the stream is required to be non-empty).
func TestWireRoundTripEmptySnapshots(t *testing.T) {
	eng := New(BackendCPU)
	snaps := map[string]Snapshot[float32]{
		"frequency":         eng.NewFrequencyEstimator(0.1).Snapshot(),
		"quantile":          eng.NewQuantileEstimator(0.1).Snapshot(),
		"sliding-frequency": eng.NewSlidingFrequency(0.1, 32).Snapshot(),
		"sliding-quantile":  eng.NewSlidingQuantile(0.1, 32).Snapshot(),
	}
	for name, snap := range snaps {
		t.Run(name, func(t *testing.T) {
			blob := mustMarshal(t, snap)
			dec, err := UnmarshalSnapshot[float32](blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if dec.Count() != 0 {
				t.Fatalf("Count = %d, want 0", dec.Count())
			}
			assertSameAnswers(t, snap, dec)
			if re := mustMarshal(t, dec); !bytes.Equal(re, blob) {
				t.Fatal("unmarshal then marshal is not the identity")
			}
		})
	}
}

// TestDecodeAllocationsIndependentOfSize: decoding allocates the snapshot's
// own storage and nothing per entry, so two blobs of one family that differ
// only in how many entries, bins or frugal keys they hold decode with the
// same number of allocations. Every size here is past 255, where boxing an
// entry index for an error message that is never printed would allocate.
func TestDecodeAllocationsIndependentOfSize(t *testing.T) {
	cycle := func(n, m int) []float32 {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(i % m)
		}
		return vals
	}
	eng := New(BackendCPU)
	unkeyed := map[string]func(m int) Snapshot[float32]{
		"frequency": func(m int) Snapshot[float32] {
			est := eng.NewFrequencyEstimator(1e-4)
			ingest(t, est, cycle(24_000, m))
			return est.Snapshot()
		},
		"sliding-frequency": func(m int) Snapshot[float32] {
			// Panes of 500 values keep every bin: a pane holds up to 500.
			est := eng.NewSlidingFrequency(0.002, 500_000)
			ingest(t, est, cycle(24_000, m))
			return est.Snapshot()
		},
	}
	decodeAllocs := func(t *testing.T, blob []byte, decode func([]byte) error) float64 {
		t.Helper()
		if err := decode(blob); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _ = decode(blob) })
	}
	for name, build := range unkeyed {
		t.Run(name, func(t *testing.T) {
			decode := func(b []byte) error { _, err := UnmarshalSnapshot[float32](b); return err }
			small, large := mustMarshal(t, build(300)), mustMarshal(t, build(1600))
			if 3*len(small) > 2*len(large) {
				t.Fatalf("blobs of %d and %d bytes: the sizes must differ by half or more", len(small), len(large))
			}
			if a, b := decodeAllocs(t, small, decode), decodeAllocs(t, large, decode); a != b {
				t.Fatalf("%d-byte blob decodes with %v allocations, %d-byte blob with %v", len(small), a, len(large), b)
			}
		})
	}
	t.Run("keyed", func(t *testing.T) {
		build := func(m int) []byte {
			ke := NewKeyedEstimator[uint64](eng, 0.01, 0.05, WithKeyedSeed(3))
			keys := make([]uint64, 24_000)
			for i := range keys {
				if keys[i] = uint64(i % m); i%4 == 0 {
					keys[i] = 0 // the one promoted key
				}
			}
			if err := ke.ProcessSlice(keys, cycle(len(keys), 257)); err != nil {
				t.Fatal(err)
			}
			if err := ke.Flush(); err != nil {
				t.Fatal(err)
			}
			if s := ke.Snapshot(); s.PromotedKeys() != 1 || s.FrugalKeys() < m/2 {
				t.Fatalf("%d keys: %d promoted, %d frugal", m, s.PromotedKeys(), s.FrugalKeys())
			}
			return mustMarshalKeyed(t, ke.Snapshot())
		}
		decode := func(b []byte) error { _, err := UnmarshalKeyedSnapshot[uint64, float32](b); return err }
		small, large := build(400), build(1600)
		if a, b := decodeAllocs(t, small, decode), decodeAllocs(t, large, decode); a != b {
			t.Fatalf("%d-byte blob decodes with %v allocations, %d-byte blob with %v", len(small), a, len(large), b)
		}
	})
}
