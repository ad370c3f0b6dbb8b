package summary

import (
	"fmt"
	"math"

	"gpustream/internal/sorter"
)

// gkTuple is one tuple of the classic streaming Greenwald-Khanna summary:
// value v, g = rmin(v) - rmin(prev), delta = rmax(v) - rmin(v).
type gkTuple[T sorter.Value] struct {
	v     T
	g     int64
	delta int64
}

// GK is the classic one-pass Greenwald-Khanna eps-approximate quantile
// summary with single-element insertion. The paper's window-based algorithm
// (Section 5.2) outperforms it in practice because it inserts far fewer
// elements into the summary; GK is kept as the single-element-insertion
// baseline for that comparison (Section 3.2).
type GK[T sorter.Value] struct {
	eps      float64
	n        int64
	tuples   []gkTuple[T]
	sinceCmp int64
	every    int64 // compress interval in inserts
}

// NewGK returns an empty eps-approximate streaming summary that compresses
// every 1/(2*eps) inserts, the standard schedule.
func NewGK[T sorter.Value](eps float64) *GK[T] {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("summary: GK eps %v out of (0, 1)", eps))
	}
	return &GK[T]{eps: eps, every: int64(1 / (2 * eps))}
}

// NewGKCompressEvery returns a GK summary compressing every `every`
// inserts. Less frequent compression trades memory for insert throughput;
// the compress-interval ablation bench sweeps this knob.
func NewGKCompressEvery[T sorter.Value](eps float64, every int64) *GK[T] {
	g := NewGK[T](eps)
	if every < 1 {
		panic("summary: compress interval must be positive")
	}
	g.every = every
	return g
}

// Count reports the number of inserted elements.
func (g *GK[T]) Count() int64 { return g.n }

// Size reports the number of retained tuples.
func (g *GK[T]) Size() int { return len(g.tuples) }

// Insert adds one observation.
func (g *GK[T]) Insert(v T) {
	g.n++
	// Find the first tuple with value >= v.
	lo, hi := 0, len(g.tuples)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.tuples[mid].v < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var delta int64
	if lo != 0 && lo != len(g.tuples) {
		delta = int64(math.Floor(2*g.eps*float64(g.n))) - 1
		if delta < 0 {
			delta = 0
		}
	}
	g.tuples = append(g.tuples, gkTuple[T]{})
	copy(g.tuples[lo+1:], g.tuples[lo:])
	g.tuples[lo] = gkTuple[T]{v: v, g: 1, delta: delta}

	g.sinceCmp++
	if g.sinceCmp >= g.every {
		g.Compress()
		g.sinceCmp = 0
	}
}

// Compress merges adjacent tuples whose combined uncertainty stays within
// the 2*eps*n budget, bounding the summary size.
func (g *GK[T]) Compress() {
	if len(g.tuples) < 3 {
		return
	}
	budget := int64(math.Floor(2 * g.eps * float64(g.n)))
	out := g.tuples[:1]
	for i := 1; i < len(g.tuples)-1; i++ {
		t := g.tuples[i]
		next := g.tuples[i+1]
		if t.g+next.g+next.delta <= budget {
			// Merge t into its successor.
			g.tuples[i+1].g += t.g
			continue
		}
		out = append(out, t)
	}
	out = append(out, g.tuples[len(g.tuples)-1])
	g.tuples = out
}

// Query returns an eps-approximate phi-quantile of the inserted elements,
// read from ToSummary. It panics if nothing has been inserted.
func (g *GK[T]) Query(phi float64) T {
	if g.n == 0 {
		panic("summary: GK query on empty summary")
	}
	return g.ToSummary().Query(phi)
}

// ToSummary converts the GK structure to the windowed Summary representation
// so both estimator families share merge/prune machinery. GK's bounds are
// true but not ordered: a late interior insert carries a delta sized by the
// 2*eps*n budget at its insert, so its RMax can lie above a later entry's,
// and even past n. orderRanks tightens each to the least RMax after it; the
// last tuple, the maximum, has delta 0 and RMax = n, so every RMax ends
// within n.
func (g *GK[T]) ToSummary() *Summary[T] {
	s := &Summary[T]{N: g.n, Eps: g.eps}
	var rmin int64
	for _, t := range g.tuples {
		rmin += t.g
		s.Entries = append(s.Entries, Entry[T]{V: t.v, RMin: rmin, RMax: rmin + t.delta})
	}
	orderRanks(s.Entries)
	return s
}
