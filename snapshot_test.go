package gpustream

import (
	"errors"
	"math"
	"testing"

	"gpustream/internal/wire"
)

func TestMergeFamilyMismatch(t *testing.T) {
	eng := New(BackendCPU)
	fe := eng.NewFrequencyEstimator(0.1)
	qe := eng.NewQuantileEstimator(0.1)
	data := []float32{1, 2, 3, 2, 1}
	if err := fe.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	if err := qe.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}

	if _, err := Merge(fe.Snapshot(), qe.Snapshot()); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("frequency+quantile: %v", err)
	}
	if _, err := Merge(qe.Snapshot(), fe.Snapshot()); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("quantile+frequency: %v", err)
	}
	if _, err := MergeAll(fe.Snapshot(), fe.Snapshot(), qe.Snapshot()); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("MergeAll mixed: %v", err)
	}
}

func TestMergeAllOfNothing(t *testing.T) {
	if _, err := MergeAll[float32](); err == nil {
		t.Fatal("MergeAll() succeeded")
	}
}

// TestMergeSemantics pins the merge rules observable through the View
// interface: counts add, frequency estimates add, and answers are
// order-independent.
func TestMergeSemantics(t *testing.T) {
	eng := New(BackendCPU)
	a := eng.NewFrequencyEstimator(0.05)
	b := eng.NewFrequencyEstimator(0.05)
	if err := a.ProcessSlice([]float32{1, 1, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.ProcessSlice([]float32{1, 2, 2, 4}); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Snapshot(), b.Snapshot()

	ab, err := Merge(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(sb, sa)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Count() != 9 || ba.Count() != 9 {
		t.Fatalf("merged counts %d, %d, want 9", ab.Count(), ba.Count())
	}
	// Streams this short stay exact under lossy counting, so the merged
	// estimates must equal the true combined counts in either merge order.
	for v, want := range map[float32]int64{1: 4, 2: 3, 3: 1, 4: 1, 9: 0} {
		for _, m := range []Snapshot[float32]{ab, ba} {
			if got, ok := m.Frequency(v); !ok || got != want {
				t.Fatalf("merged Frequency(%v) = (%d, %v), want %d", v, got, ok, want)
			}
		}
	}
	// The inputs must stay untouched (copy-on-write all the way down).
	if c, _ := sa.Frequency(1); c != 3 {
		t.Fatalf("input snapshot mutated: Frequency(1) = %d, want 3", c)
	}

	// Merging marshaled copies is identical to merging the originals.
	da, err := UnmarshalSnapshot[float32](mustMarshal(t, sa))
	if err != nil {
		t.Fatal(err)
	}
	db, err := UnmarshalSnapshot[float32](mustMarshal(t, sb))
	if err != nil {
		t.Fatal(err)
	}
	wireMerged, err := Merge(da, db)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, ab, wireMerged)
}

// TestMergeQuantileEps pins the GK sensor-rule eps combination: the merged
// summary is max(epsA, epsB)-approximate, never the sum.
func TestMergeQuantileEps(t *testing.T) {
	eng := New(BackendCPU)
	a := eng.NewQuantileEstimator(0.02)
	b := eng.NewQuantileEstimator(0.1)
	data := goldenValues[float32](1000)
	if err := a.ProcessSlice(data[:600]); err != nil {
		t.Fatal(err)
	}
	if err := b.ProcessSlice(data[600:]); err != nil {
		t.Fatal(err)
	}
	sa := a.Snapshot().(*QuantileSnapshot[float32])
	sb := b.Snapshot().(*QuantileSnapshot[float32])
	m, err := Merge[float32](sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 1000 {
		t.Fatalf("merged Count = %d, want 1000", m.Count())
	}
	qs, ok := m.(*QuantileSnapshot[float32])
	if !ok {
		t.Fatalf("merged snapshot is %T", m)
	}
	if got, want := qs.Eps(), math.Max(sa.Eps(), sb.Eps()); got != want {
		t.Fatalf("merged snapshot eps = %v, want max rule %v", got, want)
	}
	if got, want := qs.Summary().Eps, math.Max(sa.Summary().Eps, sb.Summary().Eps); got != want {
		t.Fatalf("merged summary eps = %v, want max rule %v", got, want)
	}
}

func TestTreeEps(t *testing.T) {
	if got := TreeEps(0.1, 1); got != 0.1 {
		t.Fatalf("TreeEps(0.1, 1) = %v", got)
	}
	if got := TreeEps(0.1, 2); got != 0.05 {
		t.Fatalf("TreeEps(0.1, 2) = %v", got)
	}
	if got := TreeEps(0.09, 3); got != 0.03 {
		t.Fatalf("TreeEps(0.09, 3) = %v", got)
	}
	for name, fn := range map[string]func(){
		"eps=0":  func() { TreeEps(0, 2) },
		"eps=1":  func() { TreeEps(1, 2) },
		"eps=-1": func() { TreeEps(-1, 2) },
		"h=0":    func() { TreeEps(0.1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

// fakeView is a foreign Snapshot implementation: the root helpers must
// reject it cleanly rather than assume every view speaks the wire format.
type fakeView struct{}

func (fakeView) Count() int64                                 { return 0 }
func (fakeView) Size() int                                    { return 0 }
func (fakeView) Quantile(float64) (float32, bool)             { return 0, false }
func (fakeView) HeavyHitters(float64) ([]Item[float32], bool) { return nil, false }
func (fakeView) Frequency(float32) (int64, bool)              { return 0, false }

func TestForeignSnapshot(t *testing.T) {
	if _, err := MarshalSnapshot[float32](fakeView{}); err == nil {
		t.Fatal("marshaled a foreign snapshot implementation")
	}
	eng := New(BackendCPU)
	fe := eng.NewFrequencyEstimator(0.1)
	if _, err := Merge[float32](fe.Snapshot(), fakeView{}); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("merge with foreign view: %v", err)
	}
}

// TestSnapmergeFanIn exercises the cmd/snapmerge flow at the library level:
// marshaled worker snapshots from partitioned ingestion, one merge, and the
// merged root re-marshaled for the next level — with the root blob decoding
// to the same answers.
func TestSnapmergeFanIn(t *testing.T) {
	data := goldenValues[float32](4000)
	var blobs [][]byte
	for i := 0; i < 4; i++ {
		eng := New(BackendCPU)
		est := eng.NewQuantileEstimator(TreeEps(0.04, 2))
		if err := est.ProcessSlice(data[i*1000 : (i+1)*1000]); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, mustMarshal(t, est.Snapshot()))
	}
	snaps := make([]Snapshot[float32], len(blobs))
	for i, b := range blobs {
		s, err := UnmarshalSnapshot[float32](b)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		snaps[i] = s
	}
	root, err := MergeAll(snaps...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if root.Count() != 4000 {
		t.Fatalf("root Count = %d, want 4000", root.Count())
	}
	reRead, err := UnmarshalSnapshot[float32](mustMarshal(t, root))
	if err != nil {
		t.Fatalf("re-read root blob: %v", err)
	}
	assertSameAnswers(t, root, reRead)

	if _, err := UnmarshalSnapshot[uint64](blobs[0]); !errors.Is(err, wire.ErrValueType) {
		t.Fatalf("cross-type fan-in: %v", err)
	}
}
