package summary

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// The references below are the single-window sampler and the prune sweep
// as they were written before FromSortedWindow became the pair sampler
// with an empty second run and Prune became MergePruneInto with an empty
// side. They share no loop with the kernels they check.

// fromSortedWindowRef samples an ascending window at ranks 1, step,
// 2*step, ..., w, step = floor(eps*w) and at least 1, each with its exact
// rank, by indexing the window directly.
func fromSortedWindowRef[T sorter.Value](window []T, eps float64) *Summary[T] {
	w := int64(len(window))
	if w == 0 {
		return &Summary[T]{Eps: eps / 2}
	}
	step := max(int64(eps*float64(w)), 1)
	s := &Summary[T]{N: w, Eps: max(float64(step)/(2*float64(w)), eps/2), ranked: true}
	var prev T
	for rank, next := int64(1), max(step, 2); rank <= w; rank, next = min(next, w), next+step {
		v := window[rank-1]
		if rank > 1 && v < prev {
			panic("summary: window not sorted")
		}
		prev = v
		s.Entries = append(s.Entries, Entry[T]{V: v, RMin: rank, RMax: rank})
		if rank == w {
			break
		}
	}
	return s
}

// pruneRef prunes s to at most b+1 entries by the two-pointer sweep over
// the grid ranks: grid ranks increase and rank bounds do not fall, so the
// best-scoring entry index never falls either, and one pass over the
// entries serves every grid point.
func pruneRef[T sorter.Value](s *Summary[T], b int) *Summary[T] {
	if b <= 0 {
		panic("summary: Prune with non-positive budget")
	}
	if len(s.Entries) <= b+1 {
		out := s.Clone()
		out.Eps = s.Eps + pruneEps(s.N, b)
		return out
	}
	out := &Summary[T]{N: s.N, Eps: s.Eps + pruneEps(s.N, b), Entries: make([]Entry[T], 0, b+1), ranked: s.ranked}
	es := s.Entries
	idx, lastIdx := 0, -1
	for i := 0; i <= b; i++ {
		r := pruneRank(i, s.N, b)
		cur := es[idx].score(r)
		for idx+1 < len(es) {
			next := es[idx+1].score(r)
			if next > cur {
				break
			}
			idx, cur = idx+1, next
		}
		if idx != lastIdx {
			out.Entries = append(out.Entries, es[idx])
			lastIdx = idx
		}
	}
	return out
}

// sameBits is reflect.DeepEqual over the whole summary — N, Eps and the
// unexported rank-order flag included — with every entry value compared by
// its bits: == takes -0 for +0 and no NaN for itself.
func sameBits[T sorter.Value](got, want *Summary[T]) bool {
	type entry struct {
		bits       uint64
		rmin, rmax int64
	}
	split := func(s *Summary[T]) (Summary[T], []entry) {
		rest, es := *s, []entry(nil)
		for _, e := range s.Entries {
			es = append(es, entry{sorter.Bits(e.V), e.RMin, e.RMax})
		}
		rest.Entries = nil
		return rest, es
	}
	g, ge := split(got)
	w, we := split(want)
	return reflect.DeepEqual(g, w) && reflect.DeepEqual(ge, we)
}

// samplerWindow is n values drawn from alphabet neighbouring ones, so the
// window is full of duplicates, in the key-radix sort's order; the signed
// types straddle zero, and a float zero is -0 or +0 at random.
func samplerWindow[T sorter.Value](n, alphabet int, seed uint64) []T {
	rng := stream.NewRNG(seed)
	vals := make([]T, n)
	for i := range vals {
		x := rng.Intn(alphabet)
		if T(0)-1 < 0 { // signed
			x -= alphabet / 2
		}
		v := T(x)
		if x == 0 && rng.Intn(2) == 0 {
			v = -v // -0 for the floats, 0 otherwise
		}
		vals[i] = v
	}
	slices.SortFunc(vals, func(x, y T) int { return cmp.Compare(sorter.OrderedKey(x), sorter.OrderedKey(y)) })
	return vals
}

// TestFromSortedWindowMatchesRef holds the sampler, read over one window,
// to the single-window loop, bit for bit, at six value types: windows of
// 1 to 50 distinct values, windows short enough that every rank is kept,
// the smallest that are sampled, and a window of signed zeros only.
func TestFromSortedWindowMatchesRef(t *testing.T) {
	t.Run("float32", testSamplerMatchesRef[float32])
	t.Run("float64", testSamplerMatchesRef[float64])
	t.Run("uint32", testSamplerMatchesRef[uint32])
	t.Run("uint64", testSamplerMatchesRef[uint64])
	t.Run("int32", testSamplerMatchesRef[int32])
	t.Run("int64", testSamplerMatchesRef[int64])
}

func testSamplerMatchesRef[T sorter.Value](t *testing.T) {
	check := func(name string, w []T, eps float64) {
		t.Helper()
		if got, want := FromSortedWindow(w, eps), fromSortedWindowRef(w, eps); !sameBits(got, want) {
			t.Fatalf("%s (%d values, eps %v): sampler %+v, reference %+v", name, len(w), eps, *got, *want)
		}
	}
	for _, eps := range []float64{0.5, 0.1, 0.01, 0.001} {
		keepAll := int(math.Ceil(1/eps)) - 1 // floor(eps*n) < 1: every rank kept
		for _, n := range []int{0, 1, 2, 3, keepAll, keepAll + 1, 2*keepAll + 3, 4000, 8191} {
			for _, alphabet := range []int{1, 2, 7, 50} {
				seed := uint64(n*131 + alphabet)
				check("duplicates", samplerWindow[T](n, alphabet, seed), eps)
			}
		}
		zeros := make([]T, 64)
		for i := range zeros[:32] {
			zeros[i] = -zeros[i]
		}
		check("signed zeros", zeros, eps)
	}
}
