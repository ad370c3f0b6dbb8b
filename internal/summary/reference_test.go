package summary

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// The references below are the single-window sampler, the prune sweep,
// the two-sided merge and the view's chain of merges as they were written
// before FromSortedWindow became the pair sampler with an empty second
// run, Prune became MergePruneInto with an empty side, and MergeInto and
// MergePruneInto became the two-part cases of the streamed merge chain.
// They share no loop with the kernels they check.

// fromSortedWindowRef samples an ascending window at ranks 1, step,
// 2*step, ..., w, step = floor(eps*w) and at least 1, each with its exact
// rank, by indexing the window directly.
func fromSortedWindowRef[T sorter.Value](window []T, eps float64) *Summary[T] {
	w := int64(len(window))
	if w == 0 {
		return &Summary[T]{Eps: eps / 2}
	}
	step := max(int64(eps*float64(w)), 1)
	s := &Summary[T]{N: w, Eps: max(float64(step)/(2*float64(w)), eps/2)}
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

// pruneRank is grid point i of a prune of n elements to budget b,
// ceil(i*n/b) clamped to [1, n], from i*n in 128 bits: pruneGrid's
// independent reference. The quotient fits, i*n/b being at most n for
// i <= b, and so does q+1 when rem > 0, as q is then below n.
func pruneRank(i int, n int64, b int) int64 {
	hi, lo := bits.Mul64(uint64(i), uint64(n))
	q, rem := bits.Div64(hi, lo, uint64(b))
	if rem > 0 {
		q++
	}
	return min(max(int64(q), 1), n)
}

// TestPruneGridExact walks pruneGrid over every point of grids with n up
// to 2^62, exact multiples of b and not, and holds each rank, and
// pruneRank's, to ceil(i*n/b) in math/big. In float64, 2.6% of such points
// at n near 2^40 were off by one, and 5% near 2^44.
func TestPruneGridExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	check := func(n int64, b int) {
		t.Helper()
		g := newPruneGrid(n, b)
		bn, bb := big.NewInt(n), big.NewInt(int64(b))
		var prod, q, rem big.Int
		for i := 0; i <= b; i++ {
			q.QuoRem(prod.Mul(big.NewInt(int64(i)), bn), bb, &rem)
			if rem.Sign() > 0 {
				q.Add(&q, big.NewInt(1))
			}
			want := min(max(q.Int64(), 1), n)
			if got := g.rank(); got != want {
				t.Fatalf("n=%d b=%d: grid point %d at rank %d, want %d", n, b, i, got, want)
			}
			if got := pruneRank(i, n, b); got != want {
				t.Fatalf("n=%d b=%d: pruneRank(%d) = %d, want %d", n, b, i, got, want)
			}
			g.next()
		}
	}
	for _, n := range []int64{0, 1, 2, 9, 1000} {
		for _, b := range []int{1, 2, 3, 6, 7, 999, 1000, 1001} {
			check(n, b)
		}
	}
	for _, shift := range []int{40, 44, 53, 54, 62} {
		for range 3 {
			b := 1000 + rng.Intn(39000)
			multiple := int64(1)<<shift/int64(b) - rng.Int63n(1000)
			check(multiple*int64(b), b)
			check(int64(1)<<shift-rng.Int63n(1<<20), b)
		}
	}
	check(math.MaxInt64, 40000)
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
		return &Summary[T]{N: s.N, Eps: s.Eps + pruneEps(s.N, b), Entries: slices.Clone(s.Entries)}
	}
	out := &Summary[T]{N: s.N, Eps: s.Eps + pruneEps(s.N, b), Entries: make([]Entry[T], 0, b+1)}
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

// mergeRef is MergeInto into a nil dst by one two-sided loop over a and b
// into fresh storage; a side with N = 0 passes the other through whole.
func mergeRef[T sorter.Value](a, b *Summary[T]) *Summary[T] {
	dst := &Summary[T]{}
	if a.N == 0 {
		dst.N, dst.Eps = b.N, b.Eps
		dst.Entries = append(dst.Entries, b.Entries...)
		return dst
	}
	if b.N == 0 {
		dst.N, dst.Eps = a.N, a.Eps
		dst.Entries = append(dst.Entries, a.Entries...)
		return dst
	}
	dst.N, dst.Eps = a.N+b.N, math.Max(a.Eps, b.Eps)
	ae, be := a.Entries, b.Entries
	if len(ae)+len(be) > 0 {
		dst.Entries = make([]Entry[T], len(ae)+len(be))
	}
	out := dst.Entries
	var predA, predB int64
	i, j, k := 0, 0, 0
	for i < len(ae) && j < len(be) {
		if ae[i].V <= be[j].V {
			e := ae[i]
			out[k] = Entry[T]{V: e.V, RMin: e.RMin + predB, RMax: e.RMax + be[j].RMax - 1}
			predA = e.RMin
			i++
		} else {
			e := be[j]
			out[k] = Entry[T]{V: e.V, RMin: e.RMin + predA, RMax: e.RMax + ae[i].RMax - 1}
			predB = e.RMin
			j++
		}
		k++
	}
	for _, e := range ae[i:] {
		out[k] = Entry[T]{V: e.V, RMin: e.RMin + predB, RMax: e.RMax + b.N}
		k++
	}
	for _, e := range be[j:] {
		out[k] = Entry[T]{V: e.V, RMin: e.RMin + predA, RMax: e.RMax + a.N}
		k++
	}
	return dst
}

// chainRef is the quantile view's fold before MergePruneAll streamed it:
// every part but the last merged in order into a materialized summary (a
// lone part folds into an empty one), then the last part merged in and the
// result pruned to budget — or, when the merge reads at most budget+1
// entries, only charged the prune, as MergePruneInto did. Two parts are
// MergePruneInto.
func chainRef[T sorter.Value](parts []*Summary[T], budget int) *Summary[T] {
	acc, last := &Summary[T]{}, parts[len(parts)-1]
	if len(parts) > 1 {
		acc = parts[0]
		for _, p := range parts[1 : len(parts)-1] {
			acc = mergeRef(acc, p)
		}
	}
	read := func(s *Summary[T]) int { // the entries a merge reads of s
		if s.N == 0 {
			return 0
		}
		return len(s.Entries)
	}
	m := mergeRef(acc, last)
	if read(acc)+read(last)-1 <= budget {
		m.Eps += pruneEps(m.N, budget)
		return m
	}
	return pruneRef(m, budget)
}

// sameBits is reflect.DeepEqual over the whole summary — N and Eps
// included — with every entry value compared by its bits: == takes -0 for
// +0 and no NaN for itself.
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
