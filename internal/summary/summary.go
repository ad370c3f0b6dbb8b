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
// query can be answered within Eps*N. RMin and RMax are both non-decreasing
// over the entries, which is what lets queryIndex bisect: sorted windows
// are built so, Merge and Prune preserve it, and GK.ToSummary and Decode
// establish it (orderRanks).
type Summary[T sorter.Value] struct {
	Entries []Entry[T]
	N       int64
	Eps     float64
}

// FromSortedWindow builds an (eps/2)-approximate summary from an ascending
// window, the per-node construction of the paper's Section 5.2: the
// entries of SamplePairInto's one-run Compact, each kept element with its
// exact rank. It panics if window is not sorted.
func FromSortedWindow[T sorter.Value](window []T, eps float64) *Summary[T] {
	return SamplePairInto(nil, window, nil, eps).Summary()
}

// A Part is one input of a merge: a Summary, whose entries are read in
// place, or a Compact, whose entries a reader rebuilds a block at a time.
type Part[T sorter.Value] interface {
	Size() int
	Certificate() float64
	header() (n int64, eps float64)
	// open returns the part's entries to read in place, or, with none, the
	// producer that hands them out, a block at a time, written into block.
	open(block []Entry[T]) ([]Entry[T], producer[T])
}

// producer hands out a merge side's entries a block at a time, and none
// once it has run out.
type producer[T sorter.Value] interface {
	next() []Entry[T]
}

func (s *Summary[T]) header() (int64, float64) { return s.N, s.Eps }

func (s *Summary[T]) open([]Entry[T]) ([]Entry[T], producer[T]) { return s.Entries, nil }

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

// MergeInto is Merge of two parts, either of them compact, writing its
// result into dst, whose entry storage is reused when it is large enough.
// dst must not alias a or b; any prior contents are discarded. A nil dst
// allocates a fresh summary. Returns dst. It is the two-part merge chain
// with no prune.
func MergeInto[T sorter.Value](dst *Summary[T], a, b Part[T]) *Summary[T] {
	parts := [2]Part[T]{a, b}
	return mergeChain(dst, parts[:], 0)
}

// MergePruneInto is MergeInto followed by a prune to budget, fused: it is
// MergePruneAll over the two parts a and b.
func MergePruneInto[T sorter.Value](dst *Summary[T], a, b Part[T], budget int) *Summary[T] {
	parts := [2]Part[T]{a, b}
	return MergePruneAll(dst, parts[:], budget)
}

// MergePruneAll is the chain of merges parts[0]·parts[1]·…·parts[k-1],
// each stage MergeInto of the one before with the next part, followed by a
// prune to budget (Prune), streamed: no stage's result is materialized.
// The first stage reads its two parts and every later stage one part, each
// in place or, a Compact, through its reader; each stage but the last
// writes blockLen entries at a time into a block of its own that the next
// stage reads, and the last stage
// hands each merged entry straight to the prune's grid sweep, so only the
// at most budget+1 survivors are ever written, into dst, and the walk stops
// at the last grid rank. A chain whose merge would keep every entry anyway
// (at most budget+1 of them) is merged whole into dst and charged the
// prune's error, as Prune's copy path does. The result is bit for bit the
// chain's (DESIGN.md §11). dst must not alias a part; any prior
// contents are discarded. A nil dst allocates. Returns dst.
func MergePruneAll[T sorter.Value](dst *Summary[T], parts []Part[T], budget int) *Summary[T] {
	if budget <= 0 {
		panic("summary: Prune with non-positive budget")
	}
	return mergeChain(dst, parts, budget)
}

// blockLen is the number of entries an inner stage of a merge chain writes
// before the stage after it reads them: small enough that every block of a
// view's chain stays in L1, large enough that a block's refill is rare
// (DESIGN.md §11).
const blockLen = 256

// mergeChain runs the merge chain over parts into dst, pruned to budget
// when budget is positive. A part with N = 0 drops out of the chain, as
// MergeInto passes the other side through whole, header and entries; when
// every part has N = 0 the last one passes through.
func mergeChain[T sorter.Value](dst *Summary[T], parts []Part[T], budget int) *Summary[T] {
	if dst == nil {
		dst = &Summary[T]{}
	}
	// The chain's header and its live parts: N adds and Eps takes the max,
	// in chain order.
	var (
		n                    int64
		eps                  float64
		live, total, readers int
	)
	for _, p := range parts {
		pn, pEps := p.header()
		if pn == 0 {
			continue
		}
		if live == 0 {
			eps = pEps
		} else {
			eps = math.Max(eps, pEps)
		}
		n += pn
		live++
		total += p.Size()
		if _, ok := p.(*Compact[T]); ok {
			readers++
		}
	}

	// The stages: fin merges the rest of the chain with the last live part;
	// with k live parts, k-2 inner stages before it each merge the stage
	// before (or, first, the first live part) with the next live part. A
	// lone live part is fin's a, with nothing to merge it with.
	// One block per inner stage and per compact part's reader, in one
	// allocation.
	var fin mergeStage[T]
	var inner []mergeStage[T]
	if live > 2 {
		inner = make([]mergeStage[T], live-2)
	}
	blocks := make([]Entry[T], (len(inner)+readers)*blockLen)
	block := func() []Entry[T] {
		b := blocks[:blockLen:blockLen]
		blocks = blocks[blockLen:]
		return b
	}
	var nA int64 // N of the chain so far
	s := 0       // live parts seen
	for _, p := range parts {
		pn, _ := p.header()
		if pn == 0 {
			continue
		}
		var es []Entry[T]
		var up producer[T]
		if _, ok := p.(*Compact[T]); ok {
			es, up = p.open(block())
		} else {
			es, up = p.open(nil)
		}
		switch s++; {
		case s == 1:
			fin.a, fin.upA = es, up
		case s < live:
			st := &inner[s-2]
			*st = mergeStage[T]{upA: fin.upA, a: fin.a, upB: up, b: es, nA: nA, nB: pn, block: block()}
			fin.upA, fin.a = st, nil
		default:
			fin.upB, fin.b, fin.nA, fin.nB = up, es, nA, pn
		}
		nA += pn
	}
	if live == 0 && len(parts) > 0 {
		last := parts[len(parts)-1]
		fin.a, fin.upA = last.open(nil)
		_, eps = last.header()
		total = last.Size()
	}

	if budget == 0 || live == 0 || total-1 <= budget { // not total <= budget+1: a saturated budget would overflow
		if cap(dst.Entries) < total {
			dst.Entries = make([]Entry[T], total)
		}
		fin.block = dst.Entries[:total]
		dst.Entries, dst.N, dst.Eps = fin.next(), n, eps
		if budget > 0 {
			dst.Eps += pruneEps(n, budget)
		}
		return dst
	}
	out := dst.Entries[:0]
	if cap(out) < budget+1 {
		out = make([]Entry[T], 0, budget+1)
	}
	sw := pruneSweep[T]{out: out, grid: newPruneGrid(n, budget), budget: budget, curScore: math.MaxInt64, kept: true}
	sw.r = sw.grid.rank()
	fin.sweep(&sw)
	// Out of entries: every grid point left settles on the last one.
	if !sw.kept {
		sw.out = append(sw.out, sw.cur)
	}
	dst.Entries, dst.N, dst.Eps = sw.out, n, eps+pruneEps(n, budget)
	return dst
}

// mergeStage is one 2-way merge of a chain: the chain so far, side a, with
// the next part, side b. Side a is read from the block the stage before
// writes, side b from a Compact's reader, and either in place when it has
// no producer.
type mergeStage[T sorter.Value] struct {
	upA, upB producer[T] // each side's producer; nil once the side holds all that is left of it
	a, b     []Entry[T]  // each side's unread entries
	// predA and predB are the RMin of the entry last taken from each side:
	// the predecessor, in the other side, of whatever is taken next. Its
	// successor there is the other side's head, or nothing once that side
	// has run out, and then its N is added instead.
	predA, predB int64
	nA, nB       int64
	block        []Entry[T] // where next writes
}

// fill refills a side from its producer once the side is used up; a side
// stays empty only once its producer has nothing left, and the producer is
// then dropped.
func (st *mergeStage[T]) fill() {
	if len(st.a) == 0 && st.upA != nil {
		if st.a = st.upA.next(); len(st.a) == 0 {
			st.upA = nil
		}
	}
	if len(st.b) == 0 && st.upB != nil {
		if st.b = st.upB.next(); len(st.b) == 0 {
			st.upB = nil
		}
	}
}

// next fills the stage's block with its next merged entries and returns
// them: fewer than the block holds only once both sides have run out.
// These are MergeInto's rules, with a's entry first on equal values.
func (st *mergeStage[T]) next() []Entry[T] {
	out := st.block
	k := 0
	for k < len(out) {
		st.fill()
		a, b := st.a, st.b
		if len(a) > 0 && len(b) > 0 {
			predA, predB := st.predA, st.predB
			i, j := 0, 0
			for i < len(a) && j < len(b) && k < len(out) {
				if a[i].V <= b[j].V {
					out[k] = Entry[T]{V: a[i].V, RMin: a[i].RMin + predB, RMax: a[i].RMax + b[j].RMax - 1}
					predA = a[i].RMin
					i++
				} else {
					out[k] = Entry[T]{V: b[j].V, RMin: b[j].RMin + predA, RMax: b[j].RMax + a[i].RMax - 1}
					predB = b[j].RMin
					j++
				}
				k++
			}
			st.a, st.b, st.predA, st.predB = a[i:], b[j:], predA, predB
			continue
		}
		rest, pred, succ := st.rest()
		if len(*rest) == 0 {
			break
		}
		n := min(len(*rest), len(out)-k)
		for x, e := range (*rest)[:n] {
			out[k+x] = Entry[T]{V: e.V, RMin: e.RMin + pred, RMax: e.RMax + succ}
		}
		*rest, k = (*rest)[n:], k+n
	}
	return out[:k]
}

// rest is called once a side has run out: it returns the other side, the
// predecessor rank its entries take from the side that ran out, and that
// side's N, which stands in for a successor there.
func (st *mergeStage[T]) rest() (rest *[]Entry[T], pred, succ int64) {
	if len(st.a) > 0 {
		return &st.a, st.predB, st.nB
	}
	return &st.b, st.predA, st.nA
}

// sweep is next with the prune's grid sweep in place of the block: each
// merged entry goes straight to sw, until the entries run out or every
// grid point has settled.
func (st *mergeStage[T]) sweep(sw *pruneSweep[T]) {
	for {
		st.fill()
		a, b := st.a, st.b
		if len(a) > 0 && len(b) > 0 {
			predA, predB := st.predA, st.predB
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				var e Entry[T]
				if a[i].V <= b[j].V {
					e = Entry[T]{V: a[i].V, RMin: a[i].RMin + predB, RMax: a[i].RMax + b[j].RMax - 1}
					predA = a[i].RMin
					i++
				} else {
					e = Entry[T]{V: b[j].V, RMin: b[j].RMin + predA, RMax: b[j].RMax + a[i].RMax - 1}
					predB = b[j].RMin
					j++
				}
				// e is the sweep's next entry: it replaces cur if it scores
				// no worse at r; otherwise settle moves the grid on. Written
				// out here and below rather than called, so each loop stays
				// one tight block.
				if s := e.score(sw.r); s <= sw.curScore {
					sw.cur, sw.curScore, sw.kept = e, s, false
				} else if sw.settle(e) {
					return
				}
			}
			st.a, st.b, st.predA, st.predB = a[i:], b[j:], predA, predB
			continue
		}
		rest, pred, succ := st.rest()
		if len(*rest) == 0 {
			return
		}
		for _, e := range *rest {
			e = Entry[T]{V: e.V, RMin: e.RMin + pred, RMax: e.RMax + succ}
			if s := e.score(sw.r); s <= sw.curScore {
				sw.cur, sw.curScore, sw.kept = e, s, false
			} else if sw.settle(e) {
				return
			}
		}
		*rest = nil
	}
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
	r        int64
	grid     pruneGrid
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
		sw.grid.next()
		sw.r = sw.grid.rank()
		sw.curScore = sw.cur.score(sw.r)
		if s := e.score(sw.r); s <= sw.curScore {
			sw.cur, sw.curScore, sw.kept = e, s, false
			return false
		}
	}
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
// DESIGN.md §11). Take the first entry whose RMax exceeds r + E: it
// is not the first, as RMax[0] <= 1 + E, and the entry before it has
// RMax <= r + E and, the bounds being integers, RMin >= RMax[next] - 2E - 1
// >= r - E, so its score, and the query's, is at most E; with no such
// entry, the last one's RMin >= N - E does the same. A merge certifies no
// worse than its worse input, and a prune adds at most pruneEps.
// O(entries); an empty summary certifies 0.
func (s *Summary[T]) Certificate() float64 {
	es := s.Entries
	if s.N == 0 || len(es) == 0 {
		return 0
	}
	worst, prev := gapWorst(es[0].RMax-1, es[0].RMin, es[1:])
	return float64(max(worst, s.N-prev)) / float64(s.N)
}

// gapWorst folds the entries es, which follow an entry whose RMin is prev,
// into worst, the largest floor((RMax[i+1] - RMin[i]) / 2) so far, and
// returns it with the last entry's RMin.
func gapWorst[T sorter.Value](worst, prev int64, es []Entry[T]) (int64, int64) {
	for _, e := range es {
		worst = max(worst, (e.RMax-prev)/2)
		prev = e.RMin
	}
	return worst, prev
}

// pruneGrid walks the grid of a prune of n elements to budget b: point i is
// at rank ceil(i*n/b), clamped to [1, n], for i = 0, 1, ..., b. It keeps
// i*n as its quotient q and remainder rem by b and adds n's per step, so
// every rank is exact at any n; i*n in float64 is off by one past 2^53.
type pruneGrid struct {
	q, n, stepQ     int64
	rem, stepRem, b uint64
}

// newPruneGrid returns the grid at point 0.
func newPruneGrid(n int64, b int) pruneGrid {
	return pruneGrid{n: n, stepQ: n / int64(b), stepRem: uint64(n % int64(b)), b: uint64(b)}
}

// rank is the current point's rank.
func (g *pruneGrid) rank() int64 {
	r := g.q
	if g.rem > 0 {
		r++
	}
	return min(max(r, 1), g.n)
}

// next moves to the following point. Both remainders are below b, so their
// sum cannot overflow a uint64.
func (g *pruneGrid) next() {
	g.q += g.stepQ
	if g.rem += g.stepRem; g.rem >= g.b {
		g.q++
		g.rem -= g.b
	}
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

// Validate checks structural invariants: ascending values, sane rank bounds
// in ascending order.
func (s *Summary[T]) Validate() error {
	for i, e := range s.Entries {
		if e.RMin < 1 || e.RMax > s.N || e.RMin > e.RMax {
			return fmt.Errorf("summary: entry %d has bad ranks [%d,%d] with N=%d", i, e.RMin, e.RMax, s.N)
		}
		if i > 0 && e.V < s.Entries[i-1].V {
			return fmt.Errorf("summary: entries not value-ascending at %d", i)
		}
		if i > 0 && (e.RMin < s.Entries[i-1].RMin || e.RMax < s.Entries[i-1].RMax) {
			return fmt.Errorf("summary: rank bounds out of order at %d", i)
		}
	}
	return nil
}

// orderRanks raises each RMin to the largest RMin before it and lowers each
// RMax to the least RMax after it. The entries ascend, so an entry's rank
// is no less than any earlier entry's and no more than any later one's:
// true bounds stay true, and none widens. Bounds that contradict (an RMin
// above a later RMax) end inverted, which Validate rejects.
func orderRanks[T sorter.Value](es []Entry[T]) {
	for i := 1; i < len(es); i++ {
		es[i].RMin = max(es[i].RMin, es[i-1].RMin)
	}
	for i := len(es) - 2; i >= 0; i-- {
		es[i].RMax = min(es[i].RMax, es[i+1].RMax)
	}
}
