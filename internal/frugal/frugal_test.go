package frugal

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/pipeline"
	"gpustream/internal/wire"
)

// convergenceCase is one stream shape the property test feeds a tracker
// bank.
type convergenceCase struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
	tol  float64
}

// TestConvergence pins the frugal guarantee empirically: on stationary
// streams the tracker bank converges to within a few percent of rank error
// at every probed quantile. Tolerances are loose — frugal estimates are
// heuristic, and the test exists to catch drift in the step rule, not to
// claim an eps bound the algorithm does not have.
func TestConvergence(t *testing.T) {
	const n = 200_000
	phis := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	cases := []convergenceCase{
		{
			name: "uniform",
			gen: func(rng *rand.Rand, n int) []float64 {
				out := make([]float64, n)
				for i := range out {
					out[i] = rng.Float64()
				}
				return out
			},
			tol: 0.05,
		},
		{
			name: "normal",
			gen: func(rng *rand.Rand, n int) []float64 {
				out := make([]float64, n)
				for i := range out {
					out[i] = rng.NormFloat64() * 100
				}
				return out
			},
			tol: 0.10,
		},
		{
			name: "zipf-discrete",
			gen: func(rng *rand.Rand, n int) []float64 {
				z := rand.NewZipf(rng, 1.3, 1, 1<<16)
				out := make([]float64, n)
				for i := range out {
					out[i] = float64(z.Uint64())
				}
				return out
			},
			tol: 0.20,
		},
		{
			// Adversarially ordered: the stream arrives as repeated sorted
			// ascending blocks — monotone runs are the classic frugal failure
			// mode, softened here because the block distribution is
			// stationary. Tolerance is wider accordingly.
			name: "sorted-blocks",
			gen: func(rng *rand.Rand, n int) []float64 {
				const block = 1000
				out := make([]float64, 0, n)
				for len(out) < n {
					b := make([]float64, block)
					for i := range b {
						b[i] = rng.Float64()
					}
					sort.Float64s(b)
					out = append(out, b...)
				}
				return out[:n]
			},
			tol: 0.15,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			data := tc.gen(rng, n)
			e := NewEstimator[float64](WithPhis(phis...), WithSeed(7))
			if err := e.ProcessSlice(data); err != nil {
				t.Fatal(err)
			}
			truth := oracle.New(data)
			for _, phi := range phis {
				est, target, ok := e.Estimate(phi)
				if !ok || target != phi {
					t.Fatalf("Estimate(%v) = (_, %v, %v), want tracked target", phi, target, ok)
				}
				got := float64(truth.Distance(est, oracle.Target(phi, n))) / n
				if got > tc.tol {
					t.Errorf("phi=%v: estimate %v has rank error %.4f > %.4f", phi, est, got, tc.tol)
				}
			}
		})
	}
}

// TestSortedRampBounded pins the failure-mode honesty: on a single fully
// sorted ramp the estimate need not converge, but it must stay inside the
// observed envelope — the step rule clamps on overshoot and never
// extrapolates past an observation.
func TestSortedRampBounded(t *testing.T) {
	e := NewEstimator[uint64](WithPhis(0.5), WithSeed(3))
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		if err := e.Process(i * 1000); err != nil {
			t.Fatal(err)
		}
	}
	est, _, ok := e.Estimate(0.5)
	if !ok {
		t.Fatal("Estimate not ok on non-empty stream")
	}
	if est > (n-1)*1000 {
		t.Errorf("estimate %d outside observed envelope [0, %d]", est, (n-1)*1000)
	}
}

// TestDeterminism pins that a fixed seed and ingestion order reproduce the
// tracker bank bit-exactly — the property the wire golden tests and the
// keyed tier both rely on.
func TestDeterminism(t *testing.T) {
	run := func() []float32 {
		rng := rand.New(rand.NewSource(5))
		e := NewEstimator[float32](WithSeed(11))
		for i := 0; i < 10_000; i++ {
			if err := e.Process(float32(rng.NormFloat64())); err != nil {
				t.Fatal(err)
			}
		}
		snap := e.Snapshot().(*Snapshot[float32])
		return snap.ests
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tracker %d: %v vs %v across identical runs", i, a[i], b[i])
		}
	}
}

func TestLifecycle(t *testing.T) {
	e := NewEstimator[float64]()
	if err := e.Process(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
	if err := e.Process(2); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("Process after Close = %v, want ErrClosed", err)
	}
	if err := e.ProcessSlice([]float64{3}); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("ProcessSlice after Close = %v, want ErrClosed", err)
	}
	if got := e.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if _, _, ok := e.Estimate(0.5); !ok {
		t.Fatal("closed estimator no longer queryable")
	}
	if got := e.Stats(); got != (pipeline.Stats{}) {
		t.Fatalf("Stats = %+v, want zero", got)
	}
}

func TestNearestPhi(t *testing.T) {
	e := NewEstimator[float64](WithPhis(0.25, 0.75))
	if err := e.Process(1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		phi, want float64
	}{
		{0.0, 0.25}, {0.25, 0.25}, {0.5, 0.25}, {0.51, 0.75}, {1.0, 0.75},
	} {
		if _, target, _ := e.Estimate(tc.phi); target != tc.want {
			t.Errorf("Estimate(%v) answered target %v, want %v", tc.phi, target, tc.want)
		}
	}
}

func TestNewEstimatorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("phi>1", func() { NewEstimator[float64](WithPhis(1.5)) })
	mustPanic("phi<0", func() { NewEstimator[float64](WithPhis(-0.1)) })
	mustPanic("NaN", func() { NewEstimator[float64](WithPhis(math.NaN())) })
	mustPanic("empty", func() { NewEstimator[float64](WithPhis()) })
	// Duplicates collapse rather than panic.
	if e := NewEstimator[float64](WithPhis(0.5, 0.5, 0.9)); len(e.Phis()) != 2 {
		t.Errorf("duplicate phis kept: %v", e.Phis())
	}
}

func TestSnapshotView(t *testing.T) {
	e := NewEstimator[float64](WithPhis(0.5), WithSeed(2))
	empty := e.Snapshot()
	if _, ok := empty.Quantile(0.5); ok {
		t.Fatal("empty snapshot answered a quantile")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50_000; i++ {
		if err := e.Process(rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	before, ok := snap.Quantile(0.5)
	if !ok {
		t.Fatal("snapshot Quantile not ok")
	}
	// The view is immutable under further ingestion.
	for i := 0; i < 50_000; i++ {
		if err := e.Process(100 + rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := snap.Quantile(0.5); after != before {
		t.Fatalf("snapshot answer moved under ingestion: %v -> %v", before, after)
	}
	if snap.Count() != 50_000 {
		t.Fatalf("snapshot Count = %d, want 50000", snap.Count())
	}
	if _, ok := snap.HeavyHitters(0.1); ok {
		t.Fatal("frugal snapshot claimed to answer HeavyHitters")
	}
	if _, ok := snap.Frequency(0.5); ok {
		t.Fatal("frugal snapshot claimed to answer Frequency")
	}
}

// ingestRandom builds a snapshot over n uniform values with the given seeds.
func ingestRandom(t *testing.T, dataSeed int64, stepSeed uint64, n int, shift float64) *Snapshot[float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(dataSeed))
	e := NewEstimator[float64](WithSeed(stepSeed))
	for i := 0; i < n; i++ {
		if err := e.Process(rng.Float64() + shift); err != nil {
			t.Fatal(err)
		}
	}
	return e.Snapshot().(*Snapshot[float64])
}

func TestMergeSnapshots(t *testing.T) {
	a := ingestRandom(t, 1, 2, 60_000, 0)
	b := ingestRandom(t, 3, 4, 30_000, 0.25)
	ab, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := MergeSnapshots(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Count() != 90_000 || ba.Count() != 90_000 {
		t.Fatalf("merged counts %d, %d, want 90000", ab.Count(), ba.Count())
	}
	for i, phi := range ab.Phis() {
		x, _, _ := ab.Estimate(phi)
		y, _, _ := ba.Estimate(phi)
		if x != y {
			t.Errorf("phi=%v: merge not commutative: %v vs %v", phi, x, y)
		}
		// A merged tracker is one of the inputs' trackers: inside the envelope.
		ea, _, _ := a.Estimate(phi)
		eb, _, _ := b.Estimate(phi)
		lo, hi := math.Min(ea, eb), math.Max(ea, eb)
		if x < lo || x > hi {
			t.Errorf("phi=%v: merged estimate %v outside envelope [%v, %v]", phi, x, lo, hi)
		}
		// The side with more backing data won.
		if x != ea {
			t.Errorf("tracker %d: larger-stream side did not win (%v, want %v)", i, x, ea)
		}
	}
}

func TestMergeMismatchedPhis(t *testing.T) {
	a := NewEstimator[float64](WithPhis(0.5))
	b := NewEstimator[float64](WithPhis(0.25, 0.75))
	_, err := MergeSnapshots(a.Snapshot().(*Snapshot[float64]), b.Snapshot().(*Snapshot[float64]))
	if !errors.Is(err, ErrMismatchedPhis) {
		t.Fatalf("err = %v, want ErrMismatchedPhis", err)
	}
	c := NewEstimator[float64](WithPhis(0.5))
	d := NewEstimator[float64](WithPhis(0.6))
	_, err = MergeSnapshots(c.Snapshot().(*Snapshot[float64]), d.Snapshot().(*Snapshot[float64]))
	if !errors.Is(err, ErrMismatchedPhis) {
		t.Fatalf("err = %v, want ErrMismatchedPhis", err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	s := ingestRandom(t, 7, 8, 12_345, 0)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot[float64](blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != s.Count() {
		t.Fatalf("Count %d, want %d", got.Count(), s.Count())
	}
	for _, phi := range s.Phis() {
		want, _, _ := s.Estimate(phi)
		have, _, _ := got.Estimate(phi)
		if want != have {
			t.Fatalf("phi=%v: decoded estimate %v, want %v", phi, have, want)
		}
	}
	// Canonical: decode then re-encode is the identity on bytes.
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("re-encoded bytes differ from original")
	}
	// Wrong instantiation is a clean tag mismatch.
	if _, err := UnmarshalSnapshot[float32](blob); !errors.Is(err, wire.ErrValueType) {
		t.Fatalf("wrong-type decode err = %v, want ErrValueType", err)
	}
}

// TestWireCorrupt drives the decoder through hostile mutations of a valid
// blob; every one must fail with a wrapped wire sentinel, never a panic.
func TestWireCorrupt(t *testing.T) {
	s := ingestRandom(t, 7, 8, 500, 0)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into the body: header(8) + n(8) + count(4), then per-tracker
	// phi(8) + est(8) + ctl(1).
	const body = wire.HeaderSize
	const tracker0 = body + 8 + 4
	mut := func(name string, want error, fn func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := fn(append([]byte(nil), blob...))
			_, err := UnmarshalSnapshot[float64](b)
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
		})
	}
	mut("empty", wire.ErrTruncated, func(b []byte) []byte { return nil })
	mut("truncated-body", wire.ErrTruncated, func(b []byte) []byte { return b[:len(b)-3] })
	mut("trailing", wire.ErrCorrupt, func(b []byte) []byte { return append(b, 0) })
	mut("bad-magic", wire.ErrBadMagic, func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mut("negative-n", wire.ErrCorrupt, func(b []byte) []byte {
		copy(b[body:body+8], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
		return b
	})
	t.Run("zero-count", func(t *testing.T) {
		// A blob claiming zero trackers is structurally corrupt even when
		// the byte count works out (no trailing tracker bytes to trip on).
		s2 := &Snapshot[float64]{phis: nil, ests: nil, ctls: nil, n: 0}
		bb, err := s2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalSnapshot[float64](bb); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	mut("phi-out-of-range", wire.ErrCorrupt, func(b []byte) []byte {
		copy(b[tracker0:], f64bytes(1.5))
		return b
	})
	mut("phi-nan", wire.ErrCorrupt, func(b []byte) []byte {
		copy(b[tracker0:], f64bytes(math.NaN()))
		return b
	})
	mut("unsorted-phis", wire.ErrCorrupt, func(b []byte) []byte {
		copy(b[tracker0+17:], f64bytes(0.0)) // second tracker's phi below the first
		return b
	})
	mut("invalid-sign", wire.ErrCorrupt, func(b []byte) []byte {
		b[tracker0+16] = 0xC0
		return b
	})
	mut("exp-too-big", wire.ErrCorrupt, func(b []byte) []byte {
		b[tracker0+16] = signUp | 63
		return b
	})
	mut("fresh-nonempty", wire.ErrCorrupt, func(b []byte) []byte {
		b[tracker0+16] = signFresh
		return b
	})
}

// f64bytes is the little-endian encoding of v, matching the wire format.
func f64bytes(v float64) []byte { return wire.AppendF64(nil, v) }

// TestWireFreshEmpty pins the one legal fresh encoding: an empty stream.
func TestWireFreshEmpty(t *testing.T) {
	e := NewEstimator[float64](WithPhis(0.5))
	blob, err := e.Snapshot().(*Snapshot[float64]).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot[float64](blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatalf("Count = %d, want 0", got.Count())
	}
}

func BenchmarkProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = rng.Float64()
	}
	e := NewEstimator[float64]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Process(data[i&(1<<16-1)])
	}
}
