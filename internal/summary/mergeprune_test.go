package summary

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gpustream/internal/sorter"
)

// mergePruneRef is the two-pass reference MergePruneInto must reproduce:
// the two-sided merge, then the two-pointer prune sweep.
func mergePruneRef[T sorter.Value](a, b *Summary[T], budget int) *Summary[T] {
	return chainRef([]*Summary[T]{a, b}, budget)
}

// tieWindow returns a sorted window of n values drawn from alphabet
// consecutive symbols starting at base: with a small alphabet nearly every
// comparison the merge makes is a tie.
func tieWindow(rng *rand.Rand, n, alphabet, base int) []float32 {
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(base + rng.Intn(alphabet))
	}
	slices.Sort(w)
	return w
}

// randomSummary is a summary over values base..base+alphabet-1 as the
// estimators build them: a sampled window, or — depth permitting — the
// merge of two such summaries, or a pruned one.
func randomSummary(rng *rand.Rand, alphabet, base, depth int) *Summary[float32] {
	switch op := rng.Intn(4); {
	case depth > 0 && op == 0:
		return Merge(randomSummary(rng, alphabet, base, depth-1), randomSummary(rng, alphabet, base, depth-1))
	case depth > 0 && op == 1:
		s := randomSummary(rng, alphabet, base, depth-1)
		return s.Prune(1 + rng.Intn(s.Size()+1))
	}
	eps := []float64{0.001, 0.01, 0.05, 0.2}[rng.Intn(4)]
	return FromSortedWindow(tieWindow(rng, 1+rng.Intn(400), alphabet, base), eps)
}

// checkMergePrune compares the fused kernel against the two-pass reference
// at budget, into a nil dst and into a reused one holding stale entries.
func checkMergePrune(t *testing.T, name string, a, b *Summary[float32], budget int) {
	t.Helper()
	want := mergePruneRef(a, b, budget)
	if got := MergePruneInto(nil, a, b, budget); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, budget %d: fused\n%+v\nwant\n%+v", name, budget, got, want)
	}
	stale := &Summary[float32]{Entries: make([]Entry[float32], a.Size()+b.Size()+3), N: 99, Eps: 9}
	for i := range stale.Entries {
		stale.Entries[i] = Entry[float32]{V: -1, RMin: 7, RMax: 7}
	}
	if got := MergePruneInto(stale, a, b, budget); got != stale || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, budget %d: fused into a reused dst\n%+v\nwant\n%+v", name, budget, got, want)
	}
}

// budgetsFor lists the budgets worth trying on a merged size: the smallest,
// the edge where Prune first drops an entry (size-2) and where it stops
// dropping (size-1), past it, and a few in between.
func budgetsFor(rng *rand.Rand, size int) []int {
	bs := []int{1, size - 2, size - 1, size + 5}
	for range 3 {
		bs = append(bs, 1+rng.Intn(size+1))
	}
	return slices.DeleteFunc(bs, func(b int) bool { return b < 1 })
}

// TestMergePruneMatchesTwoPass: MergePruneInto equals mergeRef + pruneRef —
// entries, N and Eps (reflect.DeepEqual) — on tie-heavy inputs from 1- to
// 50-symbol alphabets, on inputs whose ranges do not overlap (one side runs
// out first) or barely overlap, on merged and pruned inputs, on empty
// sides, and on GK-derived summaries.
func TestMergePruneMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type pair struct {
		name string
		a, b *Summary[float32]
	}
	var cases []pair
	for _, alphabet := range []int{1, 2, 3, 7, 50} {
		for range 20 {
			cases = append(cases,
				pair{"ties", randomSummary(rng, alphabet, 0, 0), randomSummary(rng, alphabet, 0, 0)},
				pair{"a runs out first", randomSummary(rng, alphabet, 0, 0), randomSummary(rng, alphabet, 100, 0)},
				pair{"b runs out first", randomSummary(rng, alphabet, 100, 0), randomSummary(rng, alphabet, 0, 0)},
				pair{"one shared symbol", randomSummary(rng, alphabet, 0, 0), randomSummary(rng, alphabet, alphabet-1, 0)},
				pair{"merged and pruned inputs", randomSummary(rng, alphabet, 0, 3), randomSummary(rng, alphabet, 0, 3)},
			)
		}
	}
	one := FromSortedWindow([]float32{5}, 0.1)
	many := FromSortedWindow(tieWindow(rng, 300, 4, 0), 0.01)
	gk := NewGK[float32](0.05)
	for _, v := range tieWindow(rng, 500, 20, 0) {
		gk.Insert(v)
	}
	cases = append(cases,
		pair{"single entry first", one, many},
		pair{"single entry last", many, one},
		pair{"empty a", &Summary[float32]{Eps: 0.3}, many},
		pair{"empty b", many, &Summary[float32]{Eps: 0.3}},
		pair{"GK input", gk.ToSummary(), many},
	)
	for _, c := range cases {
		for _, budget := range budgetsFor(rng, c.a.Size()+c.b.Size()) {
			checkMergePrune(t, c.name, c.a, c.b, budget)
		}
	}
}

// TestMergePruneUint64 runs the differential at a second value type, with
// keys whose top bit is set.
func TestMergePruneUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	window := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = 1<<63 + uint64(rng.Intn(9))
		}
		slices.Sort(w)
		return w
	}
	for range 200 {
		a := FromSortedWindow(window(1+rng.Intn(300)), 0.02)
		b := Merge(FromSortedWindow(window(1+rng.Intn(300)), 0.05), FromSortedWindow(window(1+rng.Intn(300)), 0.01))
		for _, budget := range budgetsFor(rng, a.Size()+b.Size()) {
			if got, want := MergePruneInto(nil, a, b, budget), mergePruneRef(a, b, budget); !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d: fused\n%+v\nwant\n%+v", budget, got, want)
			}
		}
	}
}

// bracket merges parts, in their order, under a random bracketing.
func bracket(rng *rand.Rand, parts []*Summary[float32]) *Summary[float32] {
	if len(parts) == 1 {
		return parts[0]
	}
	cut := 1 + rng.Intn(len(parts)-1)
	return Merge(bracket(rng, parts[:cut]), bracket(rng, parts[cut:]))
}

// TestViewChainFusedLastStep is the quantile view's shape: a chain of up to
// seven parts, merged smallest first and pruned to the view's budget by
// MergePruneAll, against the chain merged whole by the reference merge and
// then pruned. It also checks the argument DESIGN.md §11 gives for
// why streaming the chain cannot change it: a chain of merges depends only
// on the order of its parts, so every bracketing of the same sequence is
// the same summary.
func TestViewChainFusedLastStep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 3000 {
		alphabet := []int{1, 2, 5, 50}[trial%4]
		parts := make([]*Summary[float32], 2+rng.Intn(6))
		for i := range parts {
			parts[i] = randomSummary(rng, alphabet, rng.Intn(3), 1)
		}
		chain := parts[0]
		for _, p := range parts[1:] {
			chain = mergeRef(chain, p)
		}
		if got := bracket(rng, parts); !reflect.DeepEqual(got, chain) {
			t.Fatalf("trial %d: a bracketing of %d parts differs from the chain", trial, len(parts))
		}
		viewB := 1 + rng.Intn(chain.Size()+1)
		want := pruneRef(chain, viewB)
		if got := MergePruneAll(nil, partsOf(parts), viewB); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d parts, view budget %d: streamed chain differs from chain + Prune", trial, len(parts), viewB)
		}
	}
}

// FuzzMergePrune lets the fuzzer choose both inputs' alphabets, offsets and
// depth, the seed behind their contents, and the budget.
func FuzzMergePrune(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), uint8(0), uint8(0), uint16(1))
	f.Add(uint64(2), uint8(50), uint8(3), uint8(2), uint8(1), uint16(0))
	f.Add(uint64(3), uint8(7), uint8(7), uint8(3), uint8(3), uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, alphaA, alphaB, shift, depth uint8, budget uint16) {
		rng := rand.New(rand.NewSource(int64(seed)))
		d := int(depth % 4)
		a := randomSummary(rng, 1+int(alphaA%50), 0, d)
		b := randomSummary(rng, 1+int(alphaB%50), int(shift%60), d)
		size := a.Size() + b.Size()
		checkMergePrune(t, "fuzz", a, b, 1+int(budget)%(size+2))
	})
}

// partsOf lists summaries as merge parts.
func partsOf[T sorter.Value](ss []*Summary[T]) []Part[T] {
	parts := make([]Part[T], len(ss))
	for i, s := range ss {
		parts[i] = s
	}
	return parts
}

// chainPart is a part of a merge chain of the shape the fuzzer picks:
// empty; N = 0 over stale entries, which the chain must not read; exactly
// blockLen-1, blockLen or blockLen+1 entries, so that a stage's block
// fills exactly, or one short or one over; or a sampled summary, merged or
// pruned at random, or merged compact, which the chain reads through a
// reader. It returns the part with the summary the reference reads. Values come from a duplicate-heavy alphabet around
// zero, with each zero signed at random: -0 and +0 tie under the merge's
// <=, so only the chain's tie order decides which of them comes first.
func chainPart(rng *rand.Rand, shape uint8, alphabet int) (Part[float32], *Summary[float32]) {
	window := func(n int) []float32 {
		w := tieWindow(rng, n, alphabet, -alphabet/2)
		for i := range w {
			if w[i] == 0 && rng.Intn(2) == 0 {
				w[i] = -w[i]
			}
		}
		return w
	}
	var s *Summary[float32]
	switch shape % 6 {
	case 0:
		s = &Summary[float32]{Eps: 0.25}
	case 1:
		s = &Summary[float32]{Entries: FromSortedWindow(window(1+rng.Intn(50)), 0.1).Entries, Eps: 0.1}
	case 2, 3, 4: // eps this small keeps every rank
		s = FromSortedWindow(window(blockLen+int(shape%6)-3), 1e-6)
	default:
		eps := []float64{0.001, 0.01, 0.05}[rng.Intn(3)]
		switch rng.Intn(4) {
		case 0:
			s = FromSortedWindow(window(1+rng.Intn(2000)), eps)
		case 1:
			s = Merge(FromSortedWindow(window(1+rng.Intn(2000)), eps), FromSortedWindow(window(1+rng.Intn(2000)), 0.01))
		case 2:
			s = FromSortedWindow(window(1+rng.Intn(2000)), eps)
			s = s.Prune(1 + rng.Intn(s.Size()+1))
		default:
			c := SamplePairInto(nil, window(1+rng.Intn(2000)), nil, eps)
			for range rng.Intn(4) {
				c = MergeCompactInto(nil, c, SamplePairInto(nil, window(1+rng.Intn(1000)), window(rng.Intn(1000)), 0.01))
			}
			return c, c.Summary()
		}
	}
	return s, s
}

// FuzzMergePruneAll holds the streamed chain to the chain it replaced,
// chainRef, bit for bit — entry values by their bits, N, Eps and a nil
// entry list — over 1 to 8 parts of the shapes chainPart makes, into a nil
// dst and into a reused one holding stale entries. Byte i of shapes picks part i's shape.
func FuzzMergePruneAll(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint64(5), uint8(1), uint16(1))
	f.Add(uint64(2), uint8(1), uint64(0x0505), uint8(3), uint16(100))
	f.Add(uint64(3), uint8(2), uint64(0x050505), uint8(7), uint16(900))
	f.Add(uint64(4), uint8(3), uint64(0x04030201), uint8(2), uint16(300))
	f.Add(uint64(5), uint8(4), uint64(0x0502050305), uint8(50), uint16(65535))
	f.Add(uint64(6), uint8(5), uint64(0x050005010500), uint8(1), uint16(2))
	f.Add(uint64(7), uint8(6), uint64(0x05050505050505), uint8(5), uint16(1500))
	f.Add(uint64(8), uint8(7), uint64(0x0505050403020505), uint8(9), uint16(700))
	f.Add(uint64(9), uint8(7), uint64(0x0100010001000100), uint8(4), uint16(3))
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, shapes uint64, alphabet uint8, budget uint16) {
		rng := rand.New(rand.NewSource(int64(seed)))
		parts := make([]Part[float32], 1+k%8)
		refs := make([]*Summary[float32], len(parts))
		size := 0
		for i := range parts {
			parts[i], refs[i] = chainPart(rng, uint8(shapes>>(8*i)), 1+int(alphabet%50))
			size += parts[i].Size()
		}
		b := 1 + int(budget)%(size+2)
		want := chainRef(refs, b)
		if got := MergePruneAll(nil, parts, b); !sameBits(got, want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d parts, budget %d: streamed\n%+v\nwant\n%+v", len(parts), b, got, want)
		}
		stale := &Summary[float32]{Entries: make([]Entry[float32], size+3), N: 99, Eps: 9}
		for i := range stale.Entries {
			stale.Entries[i] = Entry[float32]{V: -1, RMin: 7, RMax: 7}
		}
		if got := MergePruneAll(stale, parts, b); got != stale || !sameBits(got, want) {
			t.Fatalf("%d parts, budget %d: streamed into a reused dst\n%+v\nwant\n%+v", len(parts), b, got, want)
		}
	})
}
