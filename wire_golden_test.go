package gpustream

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/sorter"
	"gpustream/internal/wire"
)

// The goldens under testdata/snapshots pin the wire format at the byte
// level: any encoding change — field order, widths, endianness — fails these
// tests. An intentional format change must bump wire.Version, copy the
// goldens it replaces into testdata/compat as v<old version>-*.snap
// (testDecodesOlderGoldens reads them) and regenerate with
// `go test -run 'TestGolden(Keyed)?Snapshots' -update`.
var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot files under testdata/snapshots")

const (
	goldenN   = 3001 // not a multiple of any pane size, so partial panes serialize
	goldenEps = 0.02
	goldenW   = 600
)

// goldenValues is a deterministic skewed stream built from an explicit LCG —
// no math/rand dependency, so the byte streams can never drift with the
// standard library. Low ids repeat often enough to be heavy hitters at
// goldenEps; every id converts exactly to every Value type.
func goldenValues[T Value](n int) []T {
	vals := make([]T, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range vals {
		x = x*6364136223846793005 + 1442695040888963407
		r := (x >> 33) % 1000
		var id uint64
		switch {
		case r < 500:
			id = r % 8
		case r < 800:
			id = 8 + r%64
		default:
			id = 72 + r%512
		}
		vals[i] = T(id)
	}
	return vals
}

// goldenFamilies names the unkeyed goldens, one per body layout.
var goldenFamilies = []string{"frequency", "quantile", "window-frequency", "window-quantile", "frugal"}

// goldenSnapshots builds one snapshot per unkeyed wire family over the
// golden stream. The parallel estimators marshal through the same two body
// layouts (frequency, quantile), so these five blobs cover every unkeyed
// family's encoding; the keyed family has its own golden in
// TestGoldenKeyedSnapshots because its snapshot is not a Snapshot[T].
func goldenSnapshots[T Value](t testing.TB) map[string]Snapshot[T] {
	t.Helper()
	data := goldenValues[T](goldenN)
	eng := NewOf[T](BackendCPU)

	fe := eng.NewFrequencyEstimator(goldenEps)
	qe := eng.NewQuantileEstimator(goldenEps)
	sf := eng.NewSlidingFrequency(goldenEps, goldenW)
	sq := eng.NewSlidingQuantile(goldenEps, goldenW)
	fr := eng.NewFrugalEstimator(WithFrugalSeed(7))
	for _, est := range []Estimator[T]{fe, qe, sf, sq, fr} {
		if err := est.ProcessSlice(data); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	return map[string]Snapshot[T]{
		"frequency":        fe.Snapshot(),
		"quantile":         qe.Snapshot(),
		"window-frequency": sf.Snapshot(),
		"window-quantile":  sq.Snapshot(),
		"frugal":           fr.Snapshot(),
	}
}

func typeName[T Value]() string {
	var z T
	return fmt.Sprintf("%T", z)
}

func mustMarshal[T Value](t testing.TB, s Snapshot[T]) []byte {
	t.Helper()
	blob, err := MarshalSnapshot(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return blob
}

// assertSameAnswers checks that two snapshots answer every View query
// identically. Values are compared through their order-preserving keys, so
// the comparison is bit-exact and NaN-safe.
func assertSameAnswers[T Value](t *testing.T, want, got Snapshot[T]) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("Count = %d, want %d", got.Count(), want.Count())
	}
	if got.Size() != want.Size() {
		t.Fatalf("Size = %d, want %d", got.Size(), want.Size())
	}
	for _, phi := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		wv, wok := want.Quantile(phi)
		gv, gok := got.Quantile(phi)
		if wok != gok || sorter.OrderedKey(wv) != sorter.OrderedKey(gv) {
			t.Fatalf("Quantile(%g) = (%v, %v), want (%v, %v)", phi, gv, gok, wv, wok)
		}
	}
	for _, sp := range []float64{0.001, 0.01, 0.05, 0.2} {
		wi, wok := want.HeavyHitters(sp)
		gi, gok := got.HeavyHitters(sp)
		if wok != gok || len(wi) != len(gi) {
			t.Fatalf("HeavyHitters(%g): %d items ok=%v, want %d ok=%v", sp, len(gi), gok, len(wi), wok)
		}
		for i := range wi {
			if sorter.OrderedKey(wi[i].Value) != sorter.OrderedKey(gi[i].Value) || wi[i].Freq != gi[i].Freq {
				t.Fatalf("HeavyHitters(%g)[%d] = %+v, want %+v", sp, i, gi[i], wi[i])
			}
		}
		for _, it := range wi {
			wf, wok2 := want.Frequency(it.Value)
			gf, gok2 := got.Frequency(it.Value)
			if wok2 != gok2 || wf != gf {
				t.Fatalf("Frequency(%v) = (%d, %v), want (%d, %v)", it.Value, gf, gok2, wf, wok2)
			}
		}
	}
}

// TestGoldenSnapshots locks the wire format byte for byte: marshaling the
// golden stream's snapshots must reproduce the committed blobs exactly, and
// decoding the committed blobs must reproduce the live snapshots' answers
// exactly and re-marshal to the same bytes (canonical encoding).
func TestGoldenSnapshots(t *testing.T) {
	t.Run("float32", testGoldenSnapshots[float32])
	t.Run("uint64", testGoldenSnapshots[uint64])
}

func testGoldenSnapshots[T Value](t *testing.T) {
	for name, snap := range goldenSnapshots[T](t) {
		t.Run(name, func(t *testing.T) {
			blob := mustMarshal(t, snap)
			if again := mustMarshal(t, snap); !bytes.Equal(blob, again) {
				t.Fatal("marshal is not deterministic")
			}

			path := filepath.Join("testdata", "snapshots", name+"."+typeName[T]()+".snap")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with `go test -run TestGoldenSnapshots -update`): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("wire bytes drifted from %s (%d bytes, golden %d): format changes must bump wire.Version and regenerate goldens",
					path, len(blob), len(want))
			}

			dec, err := UnmarshalSnapshot[T](want)
			if err != nil {
				t.Fatalf("unmarshal golden: %v", err)
			}
			assertSameAnswers(t, snap, dec)
			if re := mustMarshal(t, dec); !bytes.Equal(re, want) {
				t.Fatal("decode then re-marshal of the golden is not the identity")
			}
		})
	}
}

// goldenKeyedSnapshot builds the keyed family's golden over the golden
// stream: golden ids as keys (the eight hottest each hold ~6% of the
// stream, so they promote at 5% support) and a deterministic value cycle,
// exercising both tiers plus the nested oracle blob in one encoding.
func goldenKeyedSnapshot[K, T Value](t testing.TB) *KeyedSnapshot[K, T] {
	t.Helper()
	keys := goldenValues[K](goldenN)
	vals := make([]T, goldenN)
	for i := range vals {
		vals[i] = T(i % 257)
	}
	eng := NewOf[T](BackendCPU)
	ke := NewKeyedEstimator[K](eng, goldenEps, 0.05, WithKeyedSeed(3))
	if err := ke.ProcessSlice(keys, vals); err != nil {
		t.Fatalf("keyed ingest: %v", err)
	}
	if err := ke.Flush(); err != nil {
		t.Fatalf("keyed flush: %v", err)
	}
	return ke.Snapshot()
}

func mustMarshalKeyed[K, T Value](t testing.TB, s *KeyedSnapshot[K, T]) []byte {
	t.Helper()
	blob, err := MarshalKeyedSnapshot(s)
	if err != nil {
		t.Fatalf("marshal keyed: %v", err)
	}
	return blob
}

// assertSameKeyedAnswers checks that two keyed snapshots agree on every
// metadata accessor and answer every per-key query identically over the
// probe set (the golden key range plus the key-space boundaries).
func assertSameKeyedAnswers[K, T Value](t *testing.T, want, got *KeyedSnapshot[K, T]) {
	t.Helper()
	if got.Count() != want.Count() || got.Promotions() != want.Promotions() {
		t.Fatalf("Count/Promotions = %d/%d, want %d/%d", got.Count(), got.Promotions(), want.Count(), want.Promotions())
	}
	if got.Phi() != want.Phi() || got.Support() != want.Support() {
		t.Fatalf("Phi/Support = %g/%g, want %g/%g", got.Phi(), got.Support(), want.Phi(), want.Support())
	}
	if got.Keys() != want.Keys() || got.FrugalKeys() != want.FrugalKeys() || got.PromotedKeys() != want.PromotedKeys() {
		t.Fatalf("tiers = %d/%d/%d, want %d/%d/%d",
			got.Keys(), got.FrugalKeys(), got.PromotedKeys(),
			want.Keys(), want.FrugalKeys(), want.PromotedKeys())
	}
	probes := make([]K, 0, 603)
	for id := uint64(0); id < 600; id++ {
		probes = append(probes, K(id))
	}
	for _, b := range []uint64{0, 1 << 30, 1<<31 - 1} {
		probes = append(probes, K(b))
	}
	for _, k := range probes {
		if wp, gp := want.Promoted(k), got.Promoted(k); wp != gp {
			t.Fatalf("Promoted(%v) = %v, want %v", k, gp, wp)
		}
		wc, wok := want.KeyCount(k)
		gc, gok := got.KeyCount(k)
		if wok != gok || wc != gc {
			t.Fatalf("KeyCount(%v) = (%d, %v), want (%d, %v)", k, gc, gok, wc, wok)
		}
		for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
			wv, wok := want.Quantile(k, phi)
			gv, gok := got.Quantile(k, phi)
			if wok != gok || sorter.OrderedKey(wv) != sorter.OrderedKey(gv) {
				t.Fatalf("Quantile(%v, %g) = (%v, %v), want (%v, %v)", k, phi, gv, gok, wv, wok)
			}
		}
	}
	for _, sp := range []float64{0.01, 0.05, 0.2} {
		wi, gi := want.HeavyKeys(sp), got.HeavyKeys(sp)
		if len(wi) != len(gi) {
			t.Fatalf("HeavyKeys(%g): %d items, want %d", sp, len(gi), len(wi))
		}
		for i := range wi {
			if sorter.OrderedKey(wi[i].Value) != sorter.OrderedKey(gi[i].Value) || wi[i].Freq != gi[i].Freq {
				t.Fatalf("HeavyKeys(%g)[%d] = %+v, want %+v", sp, i, gi[i], wi[i])
			}
		}
	}
}

// TestGoldenKeyedSnapshots is the keyed family's byte-level format lock,
// parallel to TestGoldenSnapshots: the keyed snapshot surface (two type
// tags, two tiers, a nested oracle blob) marshals through its own entry
// points, so it gets its own golden and its own answer-equality check.
func TestGoldenKeyedSnapshots(t *testing.T) {
	t.Run("uint64-float32", testGoldenKeyedSnapshots[uint64, float32])
	t.Run("uint32-uint64", testGoldenKeyedSnapshots[uint32, uint64])
}

func testGoldenKeyedSnapshots[K, T Value](t *testing.T) {
	snap := goldenKeyedSnapshot[K, T](t)
	blob := mustMarshalKeyed(t, snap)
	if again := mustMarshalKeyed(t, snap); !bytes.Equal(blob, again) {
		t.Fatal("keyed marshal is not deterministic")
	}

	path := filepath.Join("testdata", "snapshots", "keyed."+typeName[K]()+"-"+typeName[T]()+".snap")
	if *updateGolden {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test -run TestGoldenKeyedSnapshots -update`): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("keyed wire bytes drifted from %s (%d bytes, golden %d): format changes must bump wire.Version and regenerate goldens",
			path, len(blob), len(want))
	}

	dec, err := UnmarshalKeyedSnapshot[K, T](want)
	if err != nil {
		t.Fatalf("unmarshal keyed golden: %v", err)
	}
	if snap.PromotedKeys() == 0 || snap.FrugalKeys() == 0 {
		t.Fatalf("golden keyed stream must populate both tiers, got %d frugal / %d promoted",
			snap.FrugalKeys(), snap.PromotedKeys())
	}
	assertSameKeyedAnswers(t, snap, dec)
	if re := mustMarshalKeyed(t, dec); !bytes.Equal(re, want) {
		t.Fatal("decode then re-marshal of the keyed golden is not the identity")
	}
}

// TestDecodesCapacityCascadeQuantileSnapshot keeps one quantile golden
// from before the cascade budgeted by observed depth, at format version 1:
// a blob a peer or a spill directory still holds — several times the
// entries of today's — must unmarshal, pass validation, answer within its
// eps, and merge with a snapshot taken today.
func TestDecodesCapacityCascadeQuantileSnapshot(t *testing.T) {
	checkOlderQuantileSnapshot[float32](t, "quantile-capacity-cascade.float32.snap")
}

// TestDecodesOneWindowLevel0QuantileSnapshots does the same for the
// quantile goldens from before level 0 spanned two sort windows, when it
// sampled each window alone.
func TestDecodesOneWindowLevel0QuantileSnapshots(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		checkOlderQuantileSnapshot[float32](t, "quantile-one-window-level0.float32.snap")
	})
	t.Run("uint64", func(t *testing.T) {
		checkOlderQuantileSnapshot[uint64](t, "quantile-one-window-level0.uint64.snap")
	})
}

// TestDecodesAPrioriViewQuantileSnapshots does the same for the quantile
// goldens from before the view was pruned to the budget its buckets'
// certified error leaves (DESIGN.md section 28): 4,001 entries budgeted
// from the a-priori account, with that account as their Eps.
func TestDecodesAPrioriViewQuantileSnapshots(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		checkOlderQuantileSnapshot[float32](t, "quantile-apriori-view.float32.snap")
	})
	t.Run("uint64", func(t *testing.T) {
		checkOlderQuantileSnapshot[uint64](t, "quantile-apriori-view.uint64.snap")
	})
}

// TestDecodesVersion1Goldens and TestDecodesVersion2Goldens read the
// goldens as format versions 1 and 2 wrote them (testdata/compat/v1-*.snap
// and v2-*.snap, each copied before the next version regenerated
// testdata/snapshots). Each is held to its current-version successor.
func TestDecodesVersion1Goldens(t *testing.T) { testDecodesOlderGoldens(t, 1) }

func TestDecodesVersion2Goldens(t *testing.T) { testDecodesOlderGoldens(t, 2) }

// testDecodesOlderGoldens holds every golden of format version v to its
// successor: the same family and value type, the same decoded snapshot —
// entries and answers — and a re-marshal that is the successor's bytes
// exactly.
func testDecodesOlderGoldens(t *testing.T, v uint16) {
	t.Run("float32", func(t *testing.T) { testDecodesOlderGolden[float32](t, v) })
	t.Run("uint64", func(t *testing.T) { testDecodesOlderGolden[uint64](t, v) })
	t.Run("keyed-uint64-float32", func(t *testing.T) { testDecodesOlderKeyedGolden[uint64, float32](t, v) })
	t.Run("keyed-uint32-uint64", func(t *testing.T) { testDecodesOlderKeyedGolden[uint32, uint64](t, v) })
}

func testDecodesOlderGolden[T Value](t *testing.T, v uint16) {
	for _, family := range goldenFamilies {
		t.Run(family, func(t *testing.T) {
			oldBlob, curBlob := readVersionPair(t, v, family+"."+typeName[T]()+".snap")
			old, err := UnmarshalSnapshot[T](oldBlob)
			if err != nil {
				t.Fatalf("unmarshal version %d: %v", v, err)
			}
			cur, err := UnmarshalSnapshot[T](curBlob)
			if err != nil {
				t.Fatalf("unmarshal version %d: %v", wire.Version, err)
			}
			if !reflect.DeepEqual(old, cur) {
				t.Fatalf("version %d and version %d goldens decode to different snapshots", v, wire.Version)
			}
			if re := mustMarshal(t, old); !bytes.Equal(re, curBlob) {
				t.Fatalf("version %d golden re-marshals to %d bytes, not its %d-byte successor", v, len(re), len(curBlob))
			}
			assertSameAnswers(t, cur, old)
		})
	}
}

func testDecodesOlderKeyedGolden[K, T Value](t *testing.T, v uint16) {
	oldBlob, curBlob := readVersionPair(t, v, "keyed."+typeName[K]()+"-"+typeName[T]()+".snap")
	old, err := UnmarshalKeyedSnapshot[K, T](oldBlob)
	if err != nil {
		t.Fatalf("unmarshal version %d: %v", v, err)
	}
	cur, err := UnmarshalKeyedSnapshot[K, T](curBlob)
	if err != nil {
		t.Fatalf("unmarshal version %d: %v", wire.Version, err)
	}
	if !reflect.DeepEqual(old, cur) {
		t.Fatalf("version %d and version %d goldens decode to different snapshots", v, wire.Version)
	}
	if re := mustMarshalKeyed(t, old); !bytes.Equal(re, curBlob) {
		t.Fatalf("version %d golden re-marshals to %d bytes, not its %d-byte successor", v, len(re), len(curBlob))
	}
	assertSameKeyedAnswers(t, cur, old)
}

// readVersionPair reads a golden at format version v (from testdata/compat)
// and at the current version (from testdata/snapshots), and checks that
// their headers differ in the version alone.
func readVersionPair(t *testing.T, v uint16, name string) (old, cur []byte) {
	t.Helper()
	old, err := os.ReadFile(filepath.Join("testdata", "compat", fmt.Sprintf("v%d-%s", v, name)))
	if err != nil {
		t.Fatal(err)
	}
	cur, err = os.ReadFile(filepath.Join("testdata", "snapshots", name))
	if err != nil {
		t.Fatal(err)
	}
	h1, err1 := wire.ReadHeader(old)
	h2, err2 := wire.ReadHeader(cur)
	if err1 != nil || err2 != nil {
		t.Fatalf("headers: %v, %v", err1, err2)
	}
	if h1.Version != v || h2.Version != wire.Version || h1.Family != h2.Family || h1.Tag != h2.Tag {
		t.Fatalf("headers %+v and %+v: want versions %d and %d of one family and value type", h1, h2, v, wire.Version)
	}
	return old, cur
}

// checkRemarshal checks what re-marshaling a decoded blob must give: the
// blob itself when it is at the current format version, and otherwise a
// current-version blob that decodes to the same snapshot and re-marshals to
// itself.
func checkRemarshal[T Value](t *testing.T, blob []byte, s Snapshot[T]) {
	t.Helper()
	re := mustMarshal(t, s)
	h, err := wire.ReadHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version == wire.Version {
		if !bytes.Equal(re, blob) {
			t.Fatal("decode then re-marshal is not the identity")
		}
		return
	}
	if rh, err := wire.ReadHeader(re); err != nil || rh.Version != wire.Version {
		t.Fatalf("a version %d blob re-marshaled to header %+v (%v), want version %d", h.Version, rh, err, wire.Version)
	}
	cur, err := UnmarshalSnapshot[T](re)
	if err != nil {
		t.Fatalf("unmarshal the re-marshaled blob: %v", err)
	}
	if !reflect.DeepEqual(cur, s) {
		t.Fatal("the re-marshaled blob decodes to a different snapshot")
	}
	if again := mustMarshal(t, cur); !bytes.Equal(again, re) {
		t.Fatal("the re-marshaled blob does not re-marshal to itself")
	}
}

// checkOlderQuantileSnapshot decodes a quantile golden of the golden stream
// kept under testdata/compat, checks its re-marshal (checkRemarshal), and
// checks its answers, alone and merged with a snapshot taken today, against
// the exact ranks.
func checkOlderQuantileSnapshot[T Value](t *testing.T, file string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "compat", file))
	if err != nil {
		t.Fatal(err)
	}
	old, err := UnmarshalSnapshot[T](blob)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	checkRemarshal(t, blob, old)
	data := goldenValues[T](goldenN)
	phis := oracle.Phis(100)[1:100]
	check := func(name string, s Snapshot[T], truth *oracle.Truth[T]) {
		t.Helper()
		if s.Count() != truth.N() {
			t.Fatalf("%s: Count = %d, want %d", name, s.Count(), truth.N())
		}
		if d, err := oracle.QuantileError(truth, s, phis); err != nil || float64(d) > goldenEps*float64(truth.N()) {
			t.Fatalf("%s: %d ranks off (%v), eps*N = %v", name, d, err, goldenEps*float64(truth.N()))
		}
	}
	check("decoded", old, oracle.New(data))

	qe := NewOf[T](BackendCPU).NewQuantileEstimator(goldenEps)
	if err := qe.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(old, qe.Snapshot())
	if err != nil {
		t.Fatalf("merge with a current snapshot: %v", err)
	}
	check("merged", merged, oracle.New(append(append([]T(nil), data...), data...)))
}
