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

// A Part is one input of a merge: a Summary or a Packed, whose entries
// are read in place, or a Compact, whose entries a reader rebuilds a block
// at a time.
type Part[T sorter.Value] interface {
	Size() int
	Certificate() float64
	header() (n int64, eps float64)
	// open returns the part as a merge side: its entries, or a Packed's
	// deltas, to read in place, or, with neither, the producer that hands
	// the entries out, a block at a time, written into block.
	open(block []Entry[T]) side[T]
}

// producer hands out a merge side's entries a block at a time, and none
// once it has run out.
type producer[T sorter.Value] interface {
	next() []Entry[T]
}

func (s *Summary[T]) header() (int64, float64) { return s.N, s.Eps }

func (s *Summary[T]) open([]Entry[T]) side[T] { return side[T]{es: s.Entries} }

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
// in place — a Packed too — or, a Compact, through its reader; each stage
// but the last writes blockLen entries at a time into a block of its own
// that the next stage reads, and the last stage hands each merged entry
// straight to the prune's grid sweep, so only the at most budget+1
// survivors are ever written, into dst, and the walk stops at the last
// grid rank. A chain whose merge would keep every entry anyway
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
// when budget is positive.
func mergeChain[T sorter.Value](dst *Summary[T], parts []Part[T], budget int) *Summary[T] {
	if dst == nil {
		dst = &Summary[T]{}
	}
	c := openChain(parts)
	if budget == 0 || c.live == 0 || c.total-1 <= budget { // not total <= budget+1: a saturated budget would overflow
		if cap(dst.Entries) < c.total {
			dst.Entries = make([]Entry[T], c.total)
		}
		c.fin.block = dst.Entries[:c.total]
		dst.Entries, dst.N, dst.Eps = c.fin.next(), c.n, c.eps
		if budget > 0 {
			dst.Eps += pruneEps(c.n, budget)
		}
		return dst
	}
	out := dst.Entries[:0]
	if cap(out) < budget+1 {
		out = make([]Entry[T], 0, budget+1)
	}
	sw := newPruneSweep(out, c.n, budget)
	c.fin.sweep(&sw)
	sw.flush()
	dst.Entries, dst.N, dst.Eps = sw.out, c.n, c.eps+pruneEps(c.n, budget)
	return dst
}

// chain is a merge chain opened over its parts: fin, its last stage, whose
// block the caller supplies, with the chain's header (N adds and Eps takes
// the max, in chain order), its live parts and the entries they hold.
type chain[T sorter.Value] struct {
	fin         mergeStage[T]
	n           int64
	eps         float64
	live, total int
}

// openChain opens the merge chain over parts. A part with N = 0 drops out
// of the chain, as MergeInto passes the other side through whole, header
// and entries; when every part has N = 0 the last one passes through.
func openChain[T sorter.Value](parts []Part[T]) chain[T] {
	var c chain[T]
	readers := 0
	for _, p := range parts {
		pn, pEps := p.header()
		if pn == 0 {
			continue
		}
		if c.live == 0 {
			c.eps = pEps
		} else {
			c.eps = math.Max(c.eps, pEps)
		}
		c.n += pn
		c.live++
		c.total += p.Size()
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
	fin := &c.fin
	var inner []mergeStage[T]
	if c.live > 2 {
		inner = make([]mergeStage[T], c.live-2)
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
		var sd side[T]
		if _, ok := p.(*Compact[T]); ok {
			sd = p.open(block())
		} else {
			sd = p.open(nil)
		}
		sd.n = pn
		switch s++; {
		case s == 1:
			fin.a = sd
		case s < c.live:
			st := &inner[s-2]
			*st = mergeStage[T]{a: fin.a, b: sd, block: block()}
			fin.a = side[T]{up: st, n: nA + pn}
		default:
			fin.b = sd
		}
		nA += pn
	}
	if c.live == 0 && len(parts) > 0 {
		last := parts[len(parts)-1]
		fin.a = last.open(nil)
		_, c.eps = last.header()
		c.total = last.Size()
	}
	return c
}

// mergeStage is one 2-way merge of a chain: the chain so far, side a, with
// the next part, side b.
type mergeStage[T sorter.Value] struct {
	a, b  side[T]
	block []Entry[T] // where next writes
}

// side is one input of a merge stage: the block the stage before writes
// or a Compact's reader fills (up), or a Summary's entries or a Packed's
// deltas, read in place. pred is the RMin of the entry last taken from the
// side: the predecessor, in the other side, of whatever is taken next, and
// for a Packed all it takes to read the next delta (Delta.at). That
// entry's successor there is the other side's head, or nothing once that
// side has run out, and then its N is added instead.
type side[T sorter.Value] struct {
	es   []Entry[T]  // unread entries
	ds   []Delta[T]  // a Packed's unread entries
	up   producer[T] // refills es; nil once es holds all that is left
	pred int64
	n    int64
}

// fill refills the side from its producer once it is used up; the side
// stays empty only once its producer has nothing left, and the producer is
// then dropped.
func (sd *side[T]) fill() {
	if len(sd.es) == 0 && sd.up != nil {
		if sd.es = sd.up.next(); len(sd.es) == 0 {
			sd.up = nil
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
		a, b := &st.a, &st.b
		a.fill()
		b.fill()
		var n int
		switch {
		case len(a.es) > 0 && len(b.es) > 0:
			a.es, b.es, a.pred, b.pred, n = mergeEE(out[k:], a.es, b.es, a.pred, b.pred)
		case len(a.es) > 0 && len(b.ds) > 0:
			a.es, b.ds, a.pred, b.pred, n = mergeEP(out[k:], a.es, b.ds, a.pred, b.pred)
		case len(a.ds) > 0 && len(b.es) > 0:
			a.ds, b.es, a.pred, b.pred, n = mergePE(out[k:], a.ds, b.es, a.pred, b.pred)
		case len(a.ds) > 0 && len(b.ds) > 0:
			a.ds, b.ds, a.pred, b.pred, n = mergePP(out[k:], a.ds, b.ds, a.pred, b.pred)
		default:
			if n = tail(out[k:], a, b); n == 0 {
				return out[:k]
			}
		}
		k += n
	}
	return out[:k]
}

// mergeEE merges the entries x of side a and y of side b, whose preds are
// predA and predB, into out while both sides hold entries and out has
// room, and returns what is left of each side, their preds and how many
// it wrote. mergeEP, mergePE and mergePP are the same loop with a Packed
// on side b, side a or both, whose head is its next delta read at its
// pred. The loop is written out four times, because a head read through a
// type parameter's method is an indirect call per entry; and it takes and
// returns its state rather than a stage's sides, so that nothing but the
// loop's own state stays live in it, which keeps it in registers.
func mergeEE[T sorter.Value](out []Entry[T], x []Entry[T], y []Entry[T], predA, predB int64) ([]Entry[T], []Entry[T], int64, int64, int) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) && k < len(out) {
		if x[i].V <= y[j].V {
			out[k] = Entry[T]{V: x[i].V, RMin: x[i].RMin + predB, RMax: x[i].RMax + y[j].RMax - 1}
			predA = x[i].RMin
			i++
		} else {
			out[k] = Entry[T]{V: y[j].V, RMin: y[j].RMin + predA, RMax: y[j].RMax + x[i].RMax - 1}
			predB = y[j].RMin
			j++
		}
		k++
	}
	return x[i:], y[j:], predA, predB, k
}

func mergeEP[T sorter.Value](out []Entry[T], x []Entry[T], y []Delta[T], predA, predB int64) ([]Entry[T], []Delta[T], int64, int64, int) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) && k < len(out) {
		hb := y[j].at(predB)
		if x[i].V <= hb.V {
			out[k] = Entry[T]{V: x[i].V, RMin: x[i].RMin + predB, RMax: x[i].RMax + hb.RMax - 1}
			predA = x[i].RMin
			i++
		} else {
			out[k] = Entry[T]{V: hb.V, RMin: hb.RMin + predA, RMax: hb.RMax + x[i].RMax - 1}
			predB = hb.RMin
			j++
		}
		k++
	}
	return x[i:], y[j:], predA, predB, k
}

func mergePE[T sorter.Value](out []Entry[T], x []Delta[T], y []Entry[T], predA, predB int64) ([]Delta[T], []Entry[T], int64, int64, int) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) && k < len(out) {
		ha := x[i].at(predA)
		if ha.V <= y[j].V {
			out[k] = Entry[T]{V: ha.V, RMin: ha.RMin + predB, RMax: ha.RMax + y[j].RMax - 1}
			predA = ha.RMin
			i++
		} else {
			out[k] = Entry[T]{V: y[j].V, RMin: y[j].RMin + predA, RMax: y[j].RMax + ha.RMax - 1}
			predB = y[j].RMin
			j++
		}
		k++
	}
	return x[i:], y[j:], predA, predB, k
}

func mergePP[T sorter.Value](out []Entry[T], x []Delta[T], y []Delta[T], predA, predB int64) ([]Delta[T], []Delta[T], int64, int64, int) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) && k < len(out) {
		ha, hb := x[i].at(predA), y[j].at(predB)
		if ha.V <= hb.V {
			out[k] = Entry[T]{V: ha.V, RMin: ha.RMin + predB, RMax: ha.RMax + hb.RMax - 1}
			predA = ha.RMin
			i++
		} else {
			out[k] = Entry[T]{V: hb.V, RMin: hb.RMin + predA, RMax: hb.RMax + ha.RMax - 1}
			predB = hb.RMin
			j++
		}
		k++
	}
	return x[i:], y[j:], predA, predB, k
}

// tail is called once a side has run out: it writes as many of the other
// side's entries as out holds and returns how many, 0 once both sides have
// run out. Each takes the pred of the side that ran out, and that side's N
// stands in for a successor.
func tail[T sorter.Value](out []Entry[T], a, b *side[T]) int {
	rest, done := a, b
	if len(a.es) == 0 && len(a.ds) == 0 {
		rest, done = b, a
	}
	pred, succ := done.pred, done.n
	if len(rest.ds) > 0 {
		n, own := min(len(rest.ds), len(out)), rest.pred
		for x, d := range rest.ds[:n] {
			e := d.at(own)
			own = e.RMin
			out[x] = Entry[T]{V: e.V, RMin: e.RMin + pred, RMax: e.RMax + succ}
		}
		rest.ds, rest.pred = rest.ds[n:], own
		return n
	}
	n := min(len(rest.es), len(out))
	for x, e := range rest.es[:n] {
		out[x] = Entry[T]{V: e.V, RMin: e.RMin + pred, RMax: e.RMax + succ}
	}
	rest.es = rest.es[n:]
	return n
}

// sweep is next with the prune's grid sweep in place of the block: each
// merged entry goes straight to sw, until the entries run out or every
// grid point has settled. Each merged entry replaces sw's cur if it scores
// no worse at r; otherwise settle moves the grid on. The loops are next's,
// written out here rather than called, with that step written out in each
// rather than called (as a method it costs more than the inliner's
// budget), so each loop stays one tight block: called, the loop over
// entries on both sides measured 3-6% slower. The loop over deltas on both
// sides is the exception, sweepPP: it keeps the most values live, and
// written out here among the stage's own it measured slower than called.
func (st *mergeStage[T]) sweep(sw *pruneSweep[T]) {
	for {
		a, b := &st.a, &st.b
		a.fill()
		b.fill()
		switch {
		case len(a.es) > 0 && len(b.es) > 0:
			x, y, predA, predB := a.es, b.es, a.pred, b.pred
			i, j := 0, 0
			for i < len(x) && j < len(y) {
				var e Entry[T]
				if x[i].V <= y[j].V {
					e = Entry[T]{V: x[i].V, RMin: x[i].RMin + predB, RMax: x[i].RMax + y[j].RMax - 1}
					predA = x[i].RMin
					i++
				} else {
					e = Entry[T]{V: y[j].V, RMin: y[j].RMin + predA, RMax: y[j].RMax + x[i].RMax - 1}
					predB = y[j].RMin
					j++
				}
				if s := e.score(sw.r); s <= sw.curScore {
					sw.cur, sw.curScore, sw.kept = e, s, false
				} else if sw.settle(e) {
					return
				}
			}
			a.es, b.es, a.pred, b.pred = x[i:], y[j:], predA, predB
		case len(a.es) > 0 && len(b.ds) > 0:
			x, y, predA, predB := a.es, b.ds, a.pred, b.pred
			i, j := 0, 0
			for i < len(x) && j < len(y) {
				var e Entry[T]
				hb := y[j].at(predB)
				if x[i].V <= hb.V {
					e = Entry[T]{V: x[i].V, RMin: x[i].RMin + predB, RMax: x[i].RMax + hb.RMax - 1}
					predA = x[i].RMin
					i++
				} else {
					e = Entry[T]{V: hb.V, RMin: hb.RMin + predA, RMax: hb.RMax + x[i].RMax - 1}
					predB = hb.RMin
					j++
				}
				if s := e.score(sw.r); s <= sw.curScore {
					sw.cur, sw.curScore, sw.kept = e, s, false
				} else if sw.settle(e) {
					return
				}
			}
			a.es, b.ds, a.pred, b.pred = x[i:], y[j:], predA, predB
		case len(a.ds) > 0 && len(b.es) > 0:
			x, y, predA, predB := a.ds, b.es, a.pred, b.pred
			i, j := 0, 0
			for i < len(x) && j < len(y) {
				var e Entry[T]
				ha := x[i].at(predA)
				if ha.V <= y[j].V {
					e = Entry[T]{V: ha.V, RMin: ha.RMin + predB, RMax: ha.RMax + y[j].RMax - 1}
					predA = ha.RMin
					i++
				} else {
					e = Entry[T]{V: y[j].V, RMin: y[j].RMin + predA, RMax: y[j].RMax + ha.RMax - 1}
					predB = y[j].RMin
					j++
				}
				if s := e.score(sw.r); s <= sw.curScore {
					sw.cur, sw.curScore, sw.kept = e, s, false
				} else if sw.settle(e) {
					return
				}
			}
			a.ds, b.es, a.pred, b.pred = x[i:], y[j:], predA, predB
		case len(a.ds) > 0 && len(b.ds) > 0:
			var settled bool
			if a.ds, b.ds, a.pred, b.pred, settled = sweepPP(sw, a.ds, b.ds, a.pred, b.pred); settled {
				return
			}
		default:
			if sweepTail(sw, a, b) {
				return
			}
		}
	}
}

// sweepPP is sweep's loop over deltas on both sides, as mergePP takes and
// returns its state, reporting whether every grid point has settled.
func sweepPP[T sorter.Value](sw *pruneSweep[T], x, y []Delta[T], predA, predB int64) ([]Delta[T], []Delta[T], int64, int64, bool) {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		var e Entry[T]
		ha, hb := x[i].at(predA), y[j].at(predB)
		if ha.V <= hb.V {
			e = Entry[T]{V: ha.V, RMin: ha.RMin + predB, RMax: ha.RMax + hb.RMax - 1}
			predA = ha.RMin
			i++
		} else {
			e = Entry[T]{V: hb.V, RMin: hb.RMin + predA, RMax: hb.RMax + ha.RMax - 1}
			predB = hb.RMin
			j++
		}
		if s := e.score(sw.r); s <= sw.curScore {
			sw.cur, sw.curScore, sw.kept = e, s, false
		} else if sw.settle(e) {
			return x, y, predA, predB, true
		}
	}
	return x[i:], y[j:], predA, predB, false
}

// sweepTail is tail with each entry fed to sw: it feeds what the side left
// holds now and reports whether every grid point has settled or both
// sides have run out.
func sweepTail[T sorter.Value](sw *pruneSweep[T], a, b *side[T]) bool {
	rest, done := a, b
	if len(a.es) == 0 && len(a.ds) == 0 {
		rest, done = b, a
	}
	pred, succ := done.pred, done.n
	if len(rest.ds) > 0 {
		own := rest.pred
		for _, d := range rest.ds {
			e := d.at(own)
			own = e.RMin
			e.RMin, e.RMax = e.RMin+pred, e.RMax+succ
			if s := e.score(sw.r); s <= sw.curScore {
				sw.cur, sw.curScore, sw.kept = e, s, false
			} else if sw.settle(e) {
				return true
			}
		}
		rest.ds = nil
		return false
	}
	if len(rest.es) == 0 {
		return true
	}
	for _, e := range rest.es {
		e = Entry[T]{V: e.V, RMin: e.RMin + pred, RMax: e.RMax + succ}
		if s := e.score(sw.r); s <= sw.curScore {
			sw.cur, sw.curScore, sw.kept = e, s, false
		} else if sw.settle(e) {
			return true
		}
	}
	rest.es = nil
	return false
}

// pruneSweep is the prune's grid sweep fed one entry at a time: grid point
// g at rank r, the entry cur it currently selects with cur's score there,
// and whether cur has been kept. A point moves cur on to each next entry
// that scores no worse at r; grid ranks rise and rank bounds do not fall,
// so one pass serves every point. It starts with a placeholder that any
// entry beats, so the first entry becomes cur. Kept entries go to out, or
// to pk when the result is packed.
type pruneSweep[T sorter.Value] struct {
	out      []Entry[T]
	pk       *packer[T]
	cur      Entry[T]
	curScore int64
	r        int64
	grid     pruneGrid
	g        int
	budget   int
	kept     bool
}

// newPruneSweep returns the sweep of a prune of n elements to budget,
// keeping entries in out.
func newPruneSweep[T sorter.Value](out []Entry[T], n int64, budget int) pruneSweep[T] {
	sw := pruneSweep[T]{out: out, grid: newPruneGrid(n, budget), budget: budget, curScore: math.MaxInt64, kept: true}
	sw.r = sw.grid.rank()
	return sw
}

// flush is called once the entries have run out: every grid point left
// settles on cur, which is kept if it has not been.
func (sw *pruneSweep[T]) flush() {
	if !sw.kept {
		sw.keep()
	}
}

// keep keeps cur, which has not been kept.
func (sw *pruneSweep[T]) keep() {
	if sw.pk != nil {
		sw.pk.put(sw.cur)
	} else {
		sw.out = append(sw.out, sw.cur)
	}
	sw.kept = true
}

// settle is called with the entry e after cur when e scores worse than cur
// at r: grid point g ends on cur, which is kept once, and the grid moves on
// until a grid point at which e scores no worse than cur; e then becomes
// cur. It reports whether every grid point has settled. It runs once per
// grid point, not per entry, and stays out of line so the merge loop that
// calls it stays small.
func (sw *pruneSweep[T]) settle(e Entry[T]) bool {
	for {
		if !sw.kept { // keep, written out: as a call it costs a call per kept entry
			if sw.pk != nil {
				sw.pk.put(sw.cur)
			} else {
				sw.out = append(sw.out, sw.cur)
			}
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
