// Package summary implements the epsilon-approximate quantile summaries the
// paper builds on (Greenwald and Khanna): the windowed summary of the
// sensor-network model — construct from a sorted window, merge, prune — and
// the classic streaming GK summary used as the single-element-insertion
// baseline. These are the tuples-with-rank-bounds structures of Section 3.2
// and Section 5.2. Summaries are comparator-based, so they are generic over
// the stack's ordered value types.
package summary

import (
	"fmt"
	"math"
	"sort"

	"gpustream/internal/sorter"
)

// Entry is one summary tuple: a value and bounds on its rank in the
// underlying (conceptual) sorted stream.
type Entry[T sorter.Value] struct {
	V          T
	RMin, RMax int64
}

// Summary is an eps-approximate quantile summary over N observed elements:
// a value-ascending list of entries with rank bounds such that any rank
// query can be answered within Eps*N.
type Summary[T sorter.Value] struct {
	Entries []Entry[T]
	N       int64
	Eps     float64

	// ranked records that RMin and RMax are both non-decreasing over
	// Entries, which is what lets queryIndex bisect. Sorted windows have it,
	// Merge and Prune preserve it and Decode checks for it; summaries built
	// any other way (GK.ToSummary, whose RMax may dip, or a struct literal)
	// leave it false and are scanned.
	ranked bool
}

// FromSortedWindow builds an (eps/2)-approximate summary from an ascending
// window, the per-node construction of the paper's Section 5.2: with
// step = floor(eps*W), at least 1, select the elements at ranks 1, step,
// 2*step, ..., W, recording each element's exact rank. Consecutive selected
// ranks are at most step <= eps*W apart, so any rank query lands within
// step/2 of a kept element; Eps reports step/(2W), or eps/2 if that is more.
// It is FromSortedPairInto with an empty second run.
//
// It panics if window is not sorted.
func FromSortedWindow[T sorter.Value](window []T, eps float64) *Summary[T] {
	return FromSortedPairInto(nil, window, nil, eps)
}

// FromSortedPairInto is FromSortedWindow over the ascending concatenation
// of two ascending runs, bit for bit, without forming it, built in dst:
// its entry storage is reused when large enough, and a nil dst allocates.
// Duplicates stay separate entries ([RMin, RMax] is rank uncertainty,
// never multiplicity). The element at each kept rank r is found by
// bisecting how many of the pair's first r come from a. That count never
// falls as r grows and rises by at most the step between two kept ranks,
// so each bisection spans at most step+1 candidates, and one, a[r-1], when
// b is empty. Runs and bisection are ordered by sorter.OrderedKey, the
// key-radix sort's order, which is total where < is not: -0 before +0,
// NaNs at the ends. Equal keys are equal bits, so where the runs tie, the
// run an element is taken from does not show. It panics if a kept element
// is < the one kept before it.
func FromSortedPairInto[T sorter.Value](dst *Summary[T], a, b []T, eps float64) *Summary[T] {
	s, step := sampled(dst, int64(len(a)+len(b)), eps)
	fromA, prev := 0, 0 // of the pair's first prev elements, fromA are a's
	var last T          // the element kept before
	// rank walks 1, step, 2*step, ..., N, each once: next is the next
	// multiple of step above 1.
	for rank, next := int64(1), max(step, 2); rank <= s.N; rank, next = min(next, s.N), next+step {
		// The fewest n of the first r taken from a such that b's part is
		// no larger than a's next element, among lo..hi; hi always
		// qualifies.
		r := int(rank)
		lo, hi := max(fromA, r-len(b)), min(fromA+r-prev, len(a))
		for lo < hi {
			if n := int(uint(lo+hi) >> 1); sorter.OrderedKey(b[r-n-1]) <= sorter.OrderedKey(a[n]) {
				hi = n
			} else {
				lo = n + 1
			}
		}
		fromA, prev = lo, r
		var v T
		if j := r - lo; lo == 0 || j > 0 && sorter.OrderedKey(a[lo-1]) < sorter.OrderedKey(b[j-1]) {
			v = b[j-1]
		} else {
			v = a[lo-1]
		}
		if rank > 1 && v < last {
			panic("summary: window not sorted")
		}
		last = v
		s.Entries = append(s.Entries, Entry[T]{V: v, RMin: rank, RMax: rank})
		if rank == s.N {
			break
		}
	}
	return s
}

// sampled readies dst (nil allocates) for the summary of a w-element
// window sampled at eps and returns it with the step between kept ranks:
// with step = floor(eps*w), at least 1, the kept ranks are 1, step,
// 2*step, ..., w, and the entry storage is sized for them so construction
// is at most one allocation. N, Eps and the rank order are set, and the
// entries are empty.
func sampled[T sorter.Value](dst *Summary[T], w int64, eps float64) (*Summary[T], int64) {
	if dst == nil {
		dst = &Summary[T]{}
	}
	if w == 0 {
		*dst = Summary[T]{Entries: dst.Entries[:0], Eps: eps / 2}
		return dst, 1
	}
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("summary: eps %v out of (0, 1]", eps))
	}
	step := int64(eps * float64(w))
	if step < 1 {
		step = 1
	}
	s := dst
	s.N, s.ranked, s.Entries = w, true, s.Entries[:0]
	if int64(cap(s.Entries)) < w/step+2 {
		s.Entries = make([]Entry[T], 0, w/step+2)
	}
	s.Eps = float64(step) / (2 * float64(w))
	if half := eps / 2; s.Eps < half {
		s.Eps = half
	}
	return s, step
}

// Size reports the number of entries.
func (s *Summary[T]) Size() int { return len(s.Entries) }

// Merge combines two summaries over disjoint substreams into one over their
// union, using the rank-combination rules of Greenwald and Khanna's
// sensor-network algorithm: for an entry from A with value v, bracketed in B
// by predecessor p and successor q,
//
//	rmin'(v) = rminA(v) + rminB(p)        (0 if no predecessor)
//	rmax'(v) = rmaxA(v) + rmaxB(q) - 1    (rmaxA(v) + NB if no successor)
//
// The merged summary is max(epsA, epsB)-approximate over NA + NB elements.
func Merge[T sorter.Value](a, b *Summary[T]) *Summary[T] {
	return MergeInto(&Summary[T]{Entries: make([]Entry[T], 0, len(a.Entries)+len(b.Entries))}, a, b)
}

// MergeInto is Merge writing its result into dst, whose entry storage is
// reused when it is large enough — the quantile cascade hands it the storage
// of a bucket it consumed earlier. dst must not alias a or b; any prior
// contents are discarded. A nil dst allocates a fresh summary. Returns dst.
func MergeInto[T sorter.Value](dst, a, b *Summary[T]) *Summary[T] {
	if dst == nil {
		dst = &Summary[T]{}
	}
	dst.Entries = dst.Entries[:0]
	if a.N == 0 {
		dst.N, dst.Eps, dst.ranked = b.N, b.Eps, b.ranked
		dst.Entries = append(dst.Entries, b.Entries...)
		return dst
	}
	if b.N == 0 {
		dst.N, dst.Eps, dst.ranked = a.N, a.Eps, a.ranked
		dst.Entries = append(dst.Entries, a.Entries...)
		return dst
	}
	dst.N, dst.Eps, dst.ranked = a.N+b.N, math.Max(a.Eps, b.Eps), a.ranked && b.ranked
	ae, be := a.Entries, b.Entries
	if cap(dst.Entries) < len(ae)+len(be) {
		dst.Entries = make([]Entry[T], len(ae)+len(be))
	}
	out := dst.Entries[:len(ae)+len(be)]
	// predA and predB are the RMin of the entry last taken from each side:
	// the predecessor, in the other summary, of whatever is taken next. Its
	// successor there is the other side's head, or nothing once that side
	// has run out.
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
	dst.Entries = out
	return dst
}

// MergePruneInto is MergeInto followed by a prune to budget, fused:
// MergeInto's walk hands each merged entry straight to the prune's grid
// sweep (Prune), so only the at most budget+1 survivors are ever written,
// into dst. No merged intermediate is built, and the walk stops at the
// last grid rank. dst must not alias a or b; any prior contents are
// discarded. A nil dst allocates. Returns dst.
func MergePruneInto[T sorter.Value](dst, a, b *Summary[T], budget int) *Summary[T] {
	if budget <= 0 {
		panic("summary: Prune with non-positive budget")
	}
	ae, be := a.Entries, b.Entries
	if a.N == 0 {
		ae = nil
	}
	if b.N == 0 {
		be = nil
	}
	if len(ae)+len(be)-1 <= budget { // the grid would keep every entry
		dst = MergeInto(dst, a, b)
		dst.Eps += pruneEps(dst.N, budget)
		return dst
	}
	if dst == nil {
		dst = &Summary[T]{}
	}
	// The merged header, by MergeInto's rules (an empty side passes the
	// other through).
	n, eps, ranked := a.N+b.N, math.Max(a.Eps, b.Eps), a.ranked && b.ranked
	switch {
	case a.N == 0:
		eps, ranked = b.Eps, b.ranked
	case b.N == 0:
		eps, ranked = a.Eps, a.ranked
	}
	out := dst.Entries[:0]
	if cap(out) < budget+1 {
		out = make([]Entry[T], 0, budget+1)
	}
	sw := pruneSweep[T]{out: out, n: n, budget: budget, r: pruneRank(0, n, budget), curScore: math.MaxInt64, kept: true}

	// MergeInto's loop while both sides have entries...
	var predA, predB int64
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		var e Entry[T]
		if ae[i].V <= be[j].V {
			e = Entry[T]{V: ae[i].V, RMin: ae[i].RMin + predB, RMax: ae[i].RMax + be[j].RMax - 1}
			predA = ae[i].RMin
			i++
		} else {
			e = Entry[T]{V: be[j].V, RMin: be[j].RMin + predA, RMax: be[j].RMax + ae[i].RMax - 1}
			predB = be[j].RMin
			j++
		}
		// e is the sweep's next entry: it replaces cur if it scores no worse
		// at r; otherwise settle moves the grid on. Written out here and
		// below rather than called, so the loop stays one tight block.
		if s := e.score(sw.r); s <= sw.curScore {
			sw.cur, sw.curScore, sw.kept = e, s, false
		} else if sw.settle(e) {
			break
		}
	}
	// ...then the side that is left, with no successor on the other.
	rest, pred, succ := ae[i:], predB, b.N
	if j < len(be) {
		rest, pred, succ = be[j:], predA, a.N
	}
	for k := 0; k < len(rest) && sw.g <= budget; k++ {
		e := Entry[T]{V: rest[k].V, RMin: rest[k].RMin + pred, RMax: rest[k].RMax + succ}
		if s := e.score(sw.r); s <= sw.curScore {
			sw.cur, sw.curScore, sw.kept = e, s, false
		} else if sw.settle(e) {
			break
		}
	}
	// Out of entries: every grid point left settles on the last one.
	if !sw.kept {
		sw.out = append(sw.out, sw.cur)
	}
	dst.Entries, dst.N, dst.Eps, dst.ranked = sw.out, n, eps+pruneEps(n, budget), ranked
	return dst
}

// pruneSweep is the prune's grid sweep fed one entry at a time: grid point
// g at rank r, the entry cur it currently selects with cur's score there,
// and whether cur has been kept. A point moves cur on to each next entry
// that scores no worse at r; grid ranks rise and rank bounds do not fall,
// so one pass serves every point. It starts with a placeholder that any
// entry beats, so the first entry becomes cur.
type pruneSweep[T sorter.Value] struct {
	out      []Entry[T]
	cur      Entry[T]
	curScore int64
	r, n     int64
	g        int
	budget   int
	kept     bool
}

// settle is called with the entry e after cur when e scores worse than cur
// at r: grid point g ends on cur, which is kept once, and the grid moves on
// until a grid point at which e scores no worse than cur; e then becomes
// cur. It reports whether every grid point has settled. It runs once per
// grid point, not per entry, and stays out of line so the merge loop that
// calls it stays small.
func (sw *pruneSweep[T]) settle(e Entry[T]) bool {
	for {
		if !sw.kept {
			sw.out = append(sw.out, sw.cur)
			sw.kept = true
		}
		if sw.g++; sw.g > sw.budget {
			return true
		}
		sw.r = pruneRank(sw.g, sw.n, sw.budget)
		sw.curScore = sw.cur.score(sw.r)
		if s := e.score(sw.r); s <= sw.curScore {
			sw.cur, sw.curScore, sw.kept = e, s, false
			return false
		}
	}
}

// Clone returns a copy of the summary with entry storage of its own.
func (s *Summary[T]) Clone() *Summary[T] {
	c := &Summary[T]{N: s.N, Eps: s.Eps, ranked: s.ranked}
	c.Entries = append([]Entry[T](nil), s.Entries...)
	return c
}

// Prune shrinks the summary to at most b+1 entries by querying the ranks
// 1, N/b, 2N/b, ..., N, rounded up, and keeping the selected entries with
// their original rank bounds. The pruned summary is
// (eps + 1/(2b) + 1/(2N))-approximate — the compress operation of the
// paper's Section 5.2, with the rounding of its grid (pruneEps). It is
// MergePruneInto with an empty summary, which passes s's header through;
// the empty side goes first, as MergeInto of two empty summaries keeps the
// second one's Eps.
func (s *Summary[T]) Prune(b int) *Summary[T] {
	return MergePruneInto(nil, &Summary[T]{}, s, b)
}

// pruneEps is the error a prune of an n-element summary to budget b may add.
// Consecutive grid ranks ceil(i*n/b) lie at most ceil(n/b) apart, and a rank
// between two of them lands within half that of one, so a query errs by up
// to n/(2b) + 1/2 ranks more than before: 1/(2b) + 1/(2n). Nine exact
// entries pruned to 6 keep ranks 1,2,3,5,6,8,9, and rank 4 errs by one,
// 1/9 > 1/12.
func pruneEps(n int64, b int) float64 {
	e := 1 / (2 * float64(b))
	if n > 0 {
		e += 1 / (2 * float64(n))
	}
	return e
}

// Certificate is the error the summary proves of itself, whatever its Eps
// says: E/N, where E, in ranks, is the largest of
//
//	floor((RMax[i+1] - RMin[i]) / 2),  RMax[0] - 1,  N - RMin[last]
//
// and every rank r in 1..N is answered within E (GK's coverage argument,
// DESIGN.md section 28). Take the first entry whose RMax exceeds r + E: it
// is not the first, as RMax[0] <= 1 + E, and the entry before it has
// RMax <= r + E and, the bounds being integers, RMin >= RMax[next] - 2E - 1
// >= r - E, so its score, and the query's, is at most E; with no such
// entry, the last one's RMin >= N - E does the same. The argument does not
// need ordered rank bounds, so it holds for unranked summaries too. A
// merge certifies no worse than its worse input, and a prune adds at most
// pruneEps. O(entries); an empty summary certifies 0.
func (s *Summary[T]) Certificate() float64 {
	es := s.Entries
	if s.N == 0 || len(es) == 0 {
		return 0
	}
	worst := max(es[0].RMax-1, s.N-es[len(es)-1].RMin)
	for i := 1; i < len(es); i++ {
		worst = max(worst, (es[i].RMax-es[i-1].RMin)/2)
	}
	return float64(worst) / float64(s.N)
}

// pruneRank is grid point i of a prune of n elements to budget b:
// ceil(i*n/b), clamped to [1, n].
func pruneRank(i int, n int64, b int) int64 {
	r := int64(math.Ceil(float64(i) * float64(n) / float64(b)))
	return min(max(r, 1), n)
}

// score is how far rank r can lie from the entry's true rank:
// max(r - RMin, RMax - r).
func (e Entry[T]) score(r int64) int64 {
	return max(r-e.RMin, e.RMax-r)
}

// queryIndex returns the index of the entry answering rank r: the first one
// minimizing max(r - RMin, RMax - r). Any value whose true rank lies within
// [RMin, RMax] then differs from r by at most that score, and the GK
// coverage invariant guarantees some entry scores <= Eps*N.
//
// With non-decreasing rank bounds r - RMin falls and RMax - r rises along
// the entries, so the score is unimodal and the minimum sits at their
// crossing: O(log n) instead of a scan per phi.
func (s *Summary[T]) queryIndex(r int64) int {
	if !s.ranked {
		return s.queryIndexLinear(r)
	}
	es := s.Entries
	// k is the first entry whose score is RMax - r; from there on the score
	// only rises, so k is the first minimum of that side.
	k := sort.Search(len(es), func(i int) bool { return es[i].RMax-r >= r-es[i].RMin })
	if k == 0 {
		return 0
	}
	// Before k the score is r - RMin and only falls, so that side's minimum
	// is at k-1 — first reached at the earliest entry sharing its RMin.
	// Being earlier it also wins a tie against k, as the scan would have it.
	below := es[k-1].RMin
	if k < len(es) && es[k].RMax-r < r-below {
		return k
	}
	return sort.Search(k, func(i int) bool { return es[i].RMin >= below })
}

// queryIndexLinear is queryIndex by a scan over every entry: the reference
// the bisection is tested against, and the path of summaries whose rank
// bounds are not known to be ordered.
func (s *Summary[T]) queryIndexLinear(r int64) int {
	best, bestScore := 0, int64(math.MaxInt64)
	for i, e := range s.Entries {
		if score := e.score(r); score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// QueryRank returns a value whose rank in the underlying stream is within
// Eps*N of r. r is clamped to [1, N]. Querying an empty summary panics.
func (s *Summary[T]) QueryRank(r int64) T {
	if len(s.Entries) == 0 {
		panic("summary: query on empty summary")
	}
	if r < 1 {
		r = 1
	}
	if r > s.N {
		r = s.N
	}
	return s.Entries[s.queryIndex(r)].V
}

// Query returns an Eps-approximate phi-quantile, phi in [0, 1].
func (s *Summary[T]) Query(phi float64) T {
	r := int64(math.Ceil(phi * float64(s.N)))
	return s.QueryRank(r)
}

// Validate checks structural invariants: ascending values, sane rank bounds.
func (s *Summary[T]) Validate() error {
	for i, e := range s.Entries {
		if e.RMin < 1 || e.RMax > s.N || e.RMin > e.RMax {
			return fmt.Errorf("summary: entry %d has bad ranks [%d,%d] with N=%d", i, e.RMin, e.RMax, s.N)
		}
		if i > 0 && e.V < s.Entries[i-1].V {
			return fmt.Errorf("summary: entries not value-ascending at %d", i)
		}
	}
	return nil
}
