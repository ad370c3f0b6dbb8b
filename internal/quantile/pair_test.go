package quantile

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// sortByKey orders vals as the key-radix sort does: by sorter.OrderedKey,
// -0 before +0 and NaNs at the ends.
func sortByKey[T sorter.Value](vals []T) {
	slices.SortFunc(vals, func(x, y T) int { return cmp.Compare(sorter.OrderedKey(x), sorter.OrderedKey(y)) })
}

// level0Reference is the level 0 of two sorted runs as one window would
// give it: FromSortedWindow over their sorted concatenation, with
// windowSummary's rule that keeping every rank spends nothing.
func level0Reference[T sorter.Value](a, b []T, eps float64) *summary.Summary[T] {
	both := append(slices.Clone(a), b...)
	sortByKey(both)
	s := summary.FromSortedWindow(both, eps)
	if s.Size() == len(both) {
		s.Eps = 0
	}
	return s
}

// sameLevel0 is reflect.DeepEqual over the whole summary — N and Eps
// included — with every entry value compared by its bits: == takes -0 for
// +0 and no NaN for itself.
func sameLevel0[T sorter.Value](got, want *summary.Summary[T]) bool {
	type entry struct {
		bits       uint64
		rmin, rmax int64
	}
	split := func(s *summary.Summary[T]) (summary.Summary[T], []entry) {
		rest, es := *s, make([]entry, len(s.Entries))
		for i, e := range s.Entries {
			es[i] = entry{sorter.Bits(e.V), e.RMin, e.RMax}
		}
		rest.Entries = nil
		return rest, es
	}
	g, ge := split(got)
	w, we := split(want)
	return reflect.DeepEqual(g, w) && reflect.DeepEqual(ge, we)
}

// checkPair requires the level 0 built from the sorted runs a and b — in
// either order, and into storage that held another summary — to be the
// reference bit for bit.
func checkPair[T sorter.Value](t *testing.T, name string, a, b []T, eps float64) {
	t.Helper()
	sortByKey(a)
	sortByKey(b)
	want := level0Reference(a, b, eps)
	dirty := windowSummary(nil, b[:len(b)/2], nil, eps)
	for _, got := range []*summary.Summary[T]{
		windowSummary(nil, a, b, eps),
		windowSummary(nil, b, a, eps),
		windowSummary(dirty, a, b, eps),
	} {
		if !sameLevel0(got, want) {
			t.Fatalf("%s (%d+%d values, eps %v): pair level 0 %+v, sorted concatenation %+v",
				name, len(a), len(b), eps, *got, *want)
		}
	}
}

// pairValues draws n values from fifty neighbouring ones, so both runs of a
// pair share duplicates; the signed types straddle zero, and a float zero is
// -0 or +0 at random.
func pairValues[T sorter.Value](n int, seed uint64) []T {
	rng := stream.NewRNG(seed)
	vals := make([]T, n)
	for i := range vals {
		x := rng.Intn(50)
		if T(0)-1 < 0 { // signed
			x -= 25
		}
		v := T(x)
		if x == 0 && rng.Intn(2) == 0 {
			v = -v // -0 for the floats, 0 otherwise
		}
		vals[i] = v
	}
	return vals
}

func TestPairLevel0MatchesSortedConcatenation(t *testing.T) {
	t.Run("float32", testPairLevel0[float32])
	t.Run("float64", testPairLevel0[float64])
	t.Run("uint32", testPairLevel0[uint32])
	t.Run("uint64", testPairLevel0[uint64])
	t.Run("int32", testPairLevel0[int32])
	t.Run("int64", testPairLevel0[int64])
}

func testPairLevel0[T sorter.Value](t *testing.T) {
	for _, eps := range []float64{0.01, 0.001} {
		w := Window(eps, 0)
		for _, shape := range []struct {
			name string
			a, b int
		}{
			{"two full windows", w, w},
			{"a flushed partial of 1", w, 1},
			{"a flushed partial of 7", w, 7},
			{"a flushed partial of 288", w, 288},
			{"a flushed partial one short", w, w - 1},
			{"a window grown in between", w, 2 * w},
			{"a window shrunk in between", w, w/3 + 1},
			{"two flushed partials", 3, 5},
			{"every rank kept", 99, 100},
			{"the smallest sampled pair", 100, 100},
			{"one window alone", w, 0},
			{"one partial alone", 0, 17},
		} {
			seed := uint64(shape.a*7919 + shape.b)
			checkPair(t, shape.name, pairValues[T](shape.a, seed), pairValues[T](shape.b, seed+1), eps)
		}
		// Only signed zeros: every split point lies between -0 and +0.
		zeros := func(n int, neg bool) []T {
			vals := make([]T, n)
			for i := range vals {
				if neg && i%2 == 0 {
					vals[i] = -vals[i]
				}
			}
			return vals
		}
		checkPair(t, "signed zeros", zeros(w, true), zeros(w, false), eps)
		checkPair(t, "signed zeros both sides", zeros(w, true), zeros(w/2, true), eps)
	}
}

// TestEstimatorLevel0IsThePair checks the wiring: the first sorted window is
// held (and counted as retained), and the next one, here a partial window a
// Flush seals, makes the level-0 bucket the reference builds from both.
func TestEstimatorLevel0IsThePair(t *testing.T) {
	const eps = 0.01
	e := newCPU(eps, 0)
	w := e.WindowSize()
	data := stream.Zipf(w+7, 1.1, 50, 31)
	if err := e.ProcessSlice(data[:w]); err != nil {
		t.Fatal(err)
	}
	if len(e.levels) != 0 || len(e.held) != w || e.SummaryEntries() != w {
		t.Fatalf("one window: %d levels, %d held, %d retained; want 0, %d, %d", len(e.levels), len(e.held), e.SummaryEntries(), w, w)
	}
	if err := e.ProcessSlice(data[w:]); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	first, partial := slices.Clone(data[:w]), slices.Clone(data[w:])
	cpusort.Quicksort(first)
	cpusort.Quicksort(partial)
	if len(e.levels) != 1 || len(e.held) != 0 || !sameLevel0(e.levels[0], level0Reference(first, partial, eps)) {
		t.Fatalf("after Flush: %d levels, %d held, or level 0 is not the pair's", len(e.levels), len(e.held))
	}
}

// pairFuzzSpecials are the values FuzzPairLevel0 decodes a byte to besides
// small integers: the key-order specials ±NaN, ±Inf and ±0, and two
// non-integers.
var pairFuzzSpecials = [...]float32{
	float32(-math.NaN()), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0,
	float32(math.Inf(1)), float32(math.NaN()), -1.5, 1.5,
}

// FuzzPairLevel0 is differential: the pair level 0 against FromSortedWindow
// over the sorted concatenation, bit for bit, with the fuzzer choosing the
// values, where the pair splits and eps.
func FuzzPairLevel0(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint16(5), uint8(0))
	f.Add([]byte("sorted runs of two windows, duplicates across the boundary"), uint16(20), uint8(3))
	epsilons := []float64{0.5, 0.2, 0.1, 0.05, 0.01}
	f.Fuzz(func(t *testing.T, raw []byte, split uint16, epsIdx uint8) {
		vals := make([]float32, len(raw))
		for i, c := range raw {
			if c%32 < uint8(len(pairFuzzSpecials)) {
				vals[i] = pairFuzzSpecials[c%32]
			} else {
				vals[i] = float32(int(c%32) - 20)
			}
		}
		cut := int(split) % (len(vals) + 1)
		checkPair(t, "fuzz", vals[:cut], vals[cut:], epsilons[int(epsIdx)%len(epsilons)])
	})
}
