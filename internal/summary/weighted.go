package summary

import (
	"fmt"
	"math"
)

// WEntry is one tuple of a weighted summary: a key value, the entry's own
// weight, and bounds on its cumulative weight (the total weight of all
// elements with keys at or below it).
type WEntry struct {
	V          float32
	Wt         float64
	WMin, WMax float64
}

// Weighted is the weight-generalized quantile summary that powers
// correlated-sum aggregate queries, the second extension the paper names in
// Section 1.2: where the plain Summary bounds an element's rank (count of
// elements below it), Weighted bounds its cumulative weight, so
// "SUM(y) WHERE x <= t" becomes the weighted analog of a rank query. All
// the GK machinery — build from a sorted window, merge, prune — carries
// over with counts replaced by weights.
type Weighted struct {
	Entries []WEntry
	W       float64 // total weight
	MaxWt   float64 // largest single weight seen (enters the error bound)
	Eps     float64 // relative error in units of W
}

// WeightedFromSortedPairs builds an (eps/2)-approximate weighted summary
// from keys xs (ascending) with non-negative weights ys: checkpoints are
// kept every eps*W of cumulative weight. Any cumulative-weight query is
// answered within eps/2*W + MaxWt.
//
// It panics if the inputs differ in length, xs is unsorted, or any weight
// is negative or non-finite: a +Inf weight makes the checkpoint step +Inf,
// and a NaN one every bound.
func WeightedFromSortedPairs(xs []float32, ys []float64, eps float64) *Weighted {
	if len(xs) != len(ys) {
		panic("summary: weighted inputs differ in length")
	}
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("summary: eps %v out of (0, 1]", eps))
	}
	w := &Weighted{}
	for i, y := range ys {
		if y < 0 {
			panic("summary: negative weight")
		}
		if math.IsNaN(y) || math.IsInf(y, 1) {
			panic("summary: non-finite weight")
		}
		if i > 0 && xs[i] < xs[i-1] {
			panic("summary: weighted keys not sorted")
		}
		w.W += y
		if y > w.MaxWt {
			w.MaxWt = y
		}
	}
	w.Eps = eps / 2
	if len(xs) == 0 {
		return w
	}
	step := eps * w.W
	cum := 0.0
	nextMark := 0.0
	for i, y := range ys {
		prev := cum
		cum += y
		last := i == len(xs)-1
		if cum >= nextMark || last || i == 0 {
			w.Entries = append(w.Entries, WEntry{V: xs[i], Wt: y, WMin: prev, WMax: cum})
			for nextMark <= cum {
				nextMark += step
				if step == 0 {
					break
				}
			}
		}
	}
	return w
}

// Size reports the number of entries.
func (w *Weighted) Size() int { return len(w.Entries) }

// MergeWeighted combines two weighted summaries over disjoint substreams,
// the weight analog of Merge: for an entry from A bracketed in B by
// predecessor p and successor q,
//
//	wmin'(v) = wminA(v) + wmaxB(p)           (0 if no predecessor)
//	wmax'(v) = wmaxA(v) + wmaxB(q) - wt(q)   (wmaxA(v) + WB if no successor)
func MergeWeighted(a, b *Weighted) *Weighted {
	if a.W == 0 && len(a.Entries) == 0 {
		return cloneWeighted(b)
	}
	if b.W == 0 && len(b.Entries) == 0 {
		return cloneWeighted(a)
	}
	out := &Weighted{W: a.W + b.W, Eps: math.Max(a.Eps, b.Eps), MaxWt: math.Max(a.MaxWt, b.MaxWt)}
	out.Entries = make([]WEntry, 0, len(a.Entries)+len(b.Entries))
	i, j := 0, 0
	for i < len(a.Entries) || j < len(b.Entries) {
		var e WEntry
		var other *Weighted
		var oi int
		if j >= len(b.Entries) || (i < len(a.Entries) && a.Entries[i].V <= b.Entries[j].V) {
			e, other, oi = a.Entries[i], b, j
			i++
		} else {
			e, other, oi = b.Entries[j], a, i
			j++
		}
		// predLower under-approximates the other summary's weight at or
		// below e.V; succUpper over-approximates its weight strictly
		// below e.V's successor.
		var predLower, succUpper float64
		if oi > 0 {
			predLower = other.Entries[oi-1].WMin
		}
		if oi < len(other.Entries) {
			succUpper = other.Entries[oi].WMax - other.Entries[oi].Wt
			if succUpper < predLower {
				succUpper = predLower
			}
		} else {
			succUpper = other.W
		}
		out.Entries = append(out.Entries, WEntry{
			V:    e.V,
			Wt:   e.Wt,
			WMin: e.WMin + predLower,
			WMax: e.WMax + succUpper,
		})
	}
	return out
}

func cloneWeighted(w *Weighted) *Weighted {
	c := &Weighted{W: w.W, Eps: w.Eps, MaxWt: w.MaxWt}
	c.Entries = append([]WEntry(nil), w.Entries...)
	return c
}

// Prune shrinks the summary to at most b+1 entries, adding 1/(2b) to Eps
// as Summary.Prune does for ranks; its grid of weights is not rounded, so
// there is no 1/(2N) term.
func (w *Weighted) Prune(b int) *Weighted {
	if b <= 0 {
		panic("summary: Prune with non-positive budget")
	}
	if len(w.Entries) <= b+1 {
		out := cloneWeighted(w)
		out.Eps = w.Eps + 1/(2*float64(b))
		return out
	}
	out := &Weighted{W: w.W, Eps: w.Eps + 1/(2*float64(b)), MaxWt: w.MaxWt}
	score := func(idx int, t float64) float64 {
		e := w.Entries[idx]
		sc := e.WMax - t
		if d := t - e.WMin; d > sc {
			sc = d
		}
		return sc
	}
	idx, lastIdx := 0, -1
	for i := 0; i <= b; i++ {
		t := float64(i) * w.W / float64(b)
		for idx+1 < len(w.Entries) && score(idx+1, t) <= score(idx, t) {
			idx++
		}
		if idx != lastIdx {
			out.Entries = append(out.Entries, w.Entries[idx])
			lastIdx = idx
		}
	}
	return out
}

// CumWeight estimates the total weight of elements with keys <= t, within
// Eps*W + MaxWt of the truth.
func (w *Weighted) CumWeight(t float32) float64 {
	if len(w.Entries) == 0 {
		return 0
	}
	// Last entry with V <= t.
	lo, hi := 0, len(w.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if w.Entries[mid].V <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// The smallest key is always checkpointed, so nothing lies below.
		return 0
	}
	if lo == len(w.Entries) {
		// The largest key is always checkpointed, so everything lies at
		// or below t.
		return w.W
	}
	e := w.Entries[lo-1]
	// cum(t) >= cum(e.V) >= e.WMin + e.Wt, and cum(t) is at most the
	// weight strictly below the next entry, bounded by its WMax - Wt.
	lower := e.WMin + e.Wt
	upper := w.W
	if lo < len(w.Entries) {
		upper = w.Entries[lo].WMax - w.Entries[lo].Wt
	}
	if upper < lower {
		upper = lower
	}
	return (lower + upper) / 2
}

// QueryWeight returns a key whose cumulative weight is within
// Eps*W + MaxWt of target — the weighted quantile query.
func (w *Weighted) QueryWeight(target float64) float32 {
	if len(w.Entries) == 0 {
		panic("summary: weighted query on empty summary")
	}
	if target < 0 {
		target = 0
	}
	if target > w.W {
		target = w.W
	}
	best, bestScore := 0, math.Inf(1)
	for i, e := range w.Entries {
		sc := e.WMax - target
		if d := target - e.WMin; d > sc {
			sc = d
		}
		if sc < bestScore {
			best, bestScore = i, sc
		}
	}
	return w.Entries[best].V
}

// Validate checks structural invariants.
func (w *Weighted) Validate() error {
	for i, e := range w.Entries {
		if e.WMin < 0 || e.WMax > w.W+1e-6 || e.WMin > e.WMax+1e-9 {
			return fmt.Errorf("summary: weighted entry %d has bad bounds [%v,%v] with W=%v", i, e.WMin, e.WMax, w.W)
		}
		if i > 0 && e.V < w.Entries[i-1].V {
			return fmt.Errorf("summary: weighted entries not key-ascending at %d", i)
		}
	}
	return nil
}
