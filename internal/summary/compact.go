package summary

import (
	"fmt"
	"math"
	"slices"

	"gpustream/internal/sorter"
)

// MaxRuns is the most runs a Compact holds: Src names a value's run in one
// byte.
const MaxRuns = 256

// Run is one sorted window (or pair of windows) a Compact sampled: N
// elements, of which the ranks 1, max(Step, 2), max(Step, 2)+Step, ..., N
// were kept, each with the value at that rank.
type Run struct{ N, Step int64 }

// Compact is a summary no prune has touched, stored as its samples: the
// kept values in merged order and, for each, the run it was sampled from.
// Its rank bounds are not stored. Each run's kept ranks are implicit in
// its shape (Run), and MergeInto's rule, applied up any tree of unpruned
// merges, telescopes: the entry for a value of run s at rank r has
//
//	RMin = r + Σ_{t≠s} (rank last kept from t before it, 0 if none)
//	RMax = r + Σ_{t≠s} (next rank kept from t after it, less 1; N_t if none)
//
// Both sums depend only on the merged order, so a reader walking the
// values with running sums rebuilds every entry MergeInto would have
// stored, bit for bit (DESIGN.md §11). A value costs sizeof(T) + 1 bytes,
// 5 or 9, where a Delta of a Packed costs 12 or 16 and an Entry 24 for
// every value type (a 4-byte value is padded to 8).
type Compact[T sorter.Value] struct {
	Vals []T
	Src  []uint8 // Src[i] indexes Runs: the run Vals[i] was kept from
	Runs []Run
	N    int64
	Eps  float64
}

// SamplePairInto samples the ascending concatenation of two ascending runs
// without forming it, into dst (nil allocates; its storage is reused when
// large enough): with step = floor(eps*N), at least 1, it keeps the
// elements at ranks 1, step, 2*step, ..., N as one Run, the per-node
// construction of the paper's Section 5.2. Consecutive kept ranks are at
// most step <= eps*N apart, so any rank query lands within step/2 of a kept
// element; Eps reports step/(2N), or eps/2 if that is more.
//
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
func SamplePairInto[T sorter.Value](dst *Compact[T], a, b []T, eps float64) *Compact[T] {
	if dst == nil {
		dst = &Compact[T]{}
	}
	c := dst
	c.Vals, c.Src, c.Runs = c.Vals[:0], c.Src[:0], c.Runs[:0]
	c.N, c.Eps = int64(len(a)+len(b)), eps/2
	if c.N == 0 {
		return c
	}
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("summary: eps %v out of (0, 1]", eps))
	}
	step := sampleStep(c.N, eps)
	if n := SampledLen(c.N, eps); cap(c.Vals) < n {
		c.Vals = make([]T, 0, n)
	}
	c.Eps = float64(step) / (2 * float64(c.N))
	if half := eps / 2; c.Eps < half {
		c.Eps = half
	}
	fromA, prev := 0, 0 // of the pair's first prev elements, fromA are a's
	var last T          // the element kept before
	// rank walks 1, step, 2*step, ..., N, each once: next is the next
	// multiple of step above 1.
	for rank, next := int64(1), max(step, 2); rank <= c.N; rank, next = min(next, c.N), next+step {
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
		c.Vals = append(c.Vals, v)
		if rank == c.N {
			break
		}
	}
	c.Src = sized(c.Src, len(c.Vals))
	clear(c.Src)
	c.Runs = append(c.Runs, Run{N: c.N, Step: step})
	return c
}

// SampledLen is the value storage SamplePairInto sizes for a pair of w
// elements sampled at eps, so a caller can hand it storage that fits.
func SampledLen(w int64, eps float64) int { return int(w/sampleStep(w, eps) + 2) }

// sampleStep is the step between a w-element window's kept ranks at eps:
// floor(eps*w), at least 1.
func sampleStep(w int64, eps float64) int64 { return max(int64(eps*float64(w)), 1) }

// sized returns b resliced to n elements, reallocated if it cannot hold
// them; what it held is not kept.
func sized[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	return b[:n]
}

// MergeCompactInto is MergeInto of two compact summaries kept compact, in
// dst (nil allocates; its storage is reused when large enough): the values
// merged with MergeInto's own comparison, a's value first unless b's is
// < it, so ±0 ties and NaNs land where MergeInto puts them, and b's runs
// after a's. N adds and Eps takes the max, with a part of N = 0 dropping
// out as MergeInto drops it. dst must not alias a or b. It panics if a and
// b hold more than MaxRuns runs together.
func MergeCompactInto[T sorter.Value](dst, a, b *Compact[T]) *Compact[T] {
	if len(a.Runs)+len(b.Runs) > MaxRuns {
		panic(fmt.Sprintf("summary: merge of %d and %d runs exceeds %d", len(a.Runs), len(b.Runs), MaxRuns))
	}
	if dst == nil {
		dst = &Compact[T]{}
	}
	total := len(a.Vals) + len(b.Vals)
	vals, src := sized(dst.Vals, total), sized(dst.Src, total)
	off := uint8(len(a.Runs))
	av, as, bv, bs := a.Vals, a.Src[:len(a.Vals)], b.Vals, b.Src[:len(b.Vals)]
	i, j := 0, 0
	for i < len(av) && j < len(bv) {
		if av[i] <= bv[j] {
			vals[i+j], src[i+j] = av[i], as[i]
			i++
		} else {
			vals[i+j], src[i+j] = bv[j], bs[j]+off
			j++
		}
	}
	copy(src[i+j:], as[i:])
	k := i + j + copy(vals[i+j:], av[i:])
	copy(vals[k:], bv[j:])
	for x, s := range bs[j:] {
		src[k+x] = s + off
	}
	n, eps := b.N, b.Eps
	if a.N > 0 {
		n, eps = a.N+b.N, a.Eps
		if b.N > 0 {
			eps = math.Max(a.Eps, b.Eps)
		}
	}
	dst.Vals, dst.Src, dst.N, dst.Eps = vals, src, n, eps
	dst.Runs = append(append(dst.Runs[:0], a.Runs...), b.Runs...)
	return dst
}

// Size reports the number of entries.
func (c *Compact[T]) Size() int { return len(c.Vals) }

// Summary returns the entries the compact summary stands for as a Summary
// of their own: what MergeInto would have built, bit for bit.
func (c *Compact[T]) Summary() *Summary[T] {
	s := &Summary[T]{N: c.N, Eps: c.Eps}
	if len(c.Vals) > 0 {
		s.Entries = make([]Entry[T], len(c.Vals))
		var rd reader[T]
		rd.start(c, s.Entries)
		rd.next()
	}
	return s
}

// Certificate is Summary.Certificate over the entries the compact summary
// stands for, read a block at a time.
func (c *Compact[T]) Certificate() float64 {
	if c.N == 0 || len(c.Vals) == 0 {
		return 0
	}
	var block [blockLen]Entry[T]
	var rd reader[T]
	rd.start(c, block[:])
	es := rd.next()
	worst, prev := gapWorst(es[0].RMax-1, es[0].RMin, es[1:])
	for es = rd.next(); len(es) > 0; es = rd.next() {
		worst, prev = gapWorst(worst, prev, es)
	}
	return float64(max(worst, c.N-prev)) / float64(c.N)
}

func (c *Compact[T]) header() (int64, float64) { return c.N, c.Eps }

func (c *Compact[T]) open(block []Entry[T]) side[T] {
	rd := &reader[T]{}
	rd.start(c, block)
	return side[T]{up: rd}
}

// kept is how many ranks the run kept: 1, then max(Step, 2), Step apart,
// below N, then N.
func (r Run) kept() int {
	if r.N <= 1 {
		return int(r.N)
	}
	inner := int64(0) // kept ranks in [max(Step, 2), N)
	if first := max(r.Step, 2); first < r.N {
		inner = (r.N - first + r.Step - 1) / r.Step
	}
	return int(inner) + 2
}

// fix is the run's m-th kept rank, from 0, of kept, read at position at:
// its gaps from the rank before (0 before the first) and to the rank after
// (N+1 past the last).
func (r Run) fix(m, kept, at int) fix {
	rank := func(m int) int64 {
		switch {
		case m < 0:
			return 0
		case m == 0:
			return 1
		case m >= kept:
			return r.N + 1
		}
		return min(max(r.Step, 2)+int64(m-1)*r.Step, r.N)
	}
	return fix{at: at, in: rank(m) - rank(m-1), out: rank(m+1) - rank(m)}
}

// reader rebuilds a Compact's entries in order, a block at a time, with
// the telescoped rank rule: sumLast is the sum over runs of the rank last
// read from each, which for the value just read is its RMin, and sumNext
// the sum over runs of the next rank less one (N once none is left), which
// for the value about to be read, its own run's next, is its RMax less
// one. Reading a value moves sumLast on by the gap from its run's rank
// before to its own, and sumNext by the gap from its own to the run's rank
// after. Both gaps are the run's Step but at its first two and last two
// kept ranks; those few values are listed, by position, with their gaps
// (fixes), so the walk between them is a table lookup and two adds per
// value, with no state carried from one value of a run to the next.
type reader[T sorter.Value] struct {
	vals             []T
	src              []uint8
	steps            []int64 // Runs[s].Step
	fixes            []fix   // ascending by at
	at               int     // position of vals[0] in the Compact
	sumLast, sumNext int64
	block            []Entry[T]
}

// fix is a value whose gaps are not its run's Step: its position and its
// gaps in and out.
type fix struct {
	at      int
	in, out int64
}

// start readies rd to read c into block: every run's next rank is 1, so
// sumNext starts at 0. It finds each run's first two values scanning
// forward and its last two scanning back, each scan stopping once it has
// found them all.
func (rd *reader[T]) start(c *Compact[T], block []Entry[T]) {
	*rd = reader[T]{vals: c.Vals, src: c.Src[:len(c.Vals)], steps: make([]int64, len(c.Runs)), block: block}
	// Per run, its kept ranks and how many of its values the scans have
	// found: its first two from the front, and of its last two those that
	// are not among them from the back.
	type scan struct{ kept, head, tail int }
	runs := make([]scan, len(c.Runs))
	heads := func(sc *scan) int { return min(sc.kept, 2) }
	tails := func(sc *scan) int { return min(max(sc.kept-2, 0), 2) }
	headLeft, tailLeft := 0, 0
	for s, r := range c.Runs {
		sc := &runs[s]
		sc.kept, rd.steps[s] = r.kept(), r.Step
		headLeft += heads(sc)
		tailLeft += tails(sc)
	}
	rd.fixes = make([]fix, 0, headLeft+tailLeft)
	for at := 0; headLeft > 0; at++ {
		s := rd.src[at]
		if sc := &runs[s]; sc.head < heads(sc) {
			rd.fixes = append(rd.fixes, c.Runs[s].fix(sc.head, sc.kept, at))
			sc.head++
			headLeft--
		}
	}
	for at := len(rd.src) - 1; tailLeft > 0; at-- {
		s := rd.src[at]
		if sc := &runs[s]; sc.tail < tails(sc) {
			rd.fixes = append(rd.fixes, c.Runs[s].fix(sc.kept-1-sc.tail, sc.kept, at))
			sc.tail++
			tailLeft--
		}
	}
	slices.SortFunc(rd.fixes, func(x, y fix) int { return x.at - y.at })
	// Runs of one step, as full windows make, need no lookup per value.
	if !slices.ContainsFunc(rd.steps, func(st int64) bool { return st != rd.steps[0] }) {
		rd.steps = rd.steps[:min(len(rd.steps), 1)]
	}
}

// next rebuilds the next entries into the block and returns them; none
// once every value has been read.
func (rd *reader[T]) next() []Entry[T] {
	k := min(len(rd.block), len(rd.vals))
	out := rd.block[:k]
	sumLast, sumNext := rd.sumLast, rd.sumNext
	for i := 0; i < k; {
		end := k
		if len(rd.fixes) > 0 {
			end = min(end, rd.fixes[0].at-rd.at)
		}
		sumLast, sumNext = readSteps(out[i:end], rd.vals[i:end], rd.src[i:end], rd.steps, sumLast, sumNext)
		if i = end; i < k {
			f := rd.fixes[0]
			rd.fixes = rd.fixes[1:]
			sumLast += f.in
			out[i] = Entry[T]{V: rd.vals[i], RMin: sumLast, RMax: sumNext + 1}
			sumNext += f.out
			i++
		}
	}
	rd.sumLast, rd.sumNext = sumLast, sumNext
	rd.vals, rd.src, rd.at = rd.vals[k:], rd.src[k:], rd.at+k
	return out
}

// readSteps rebuilds the entries of vals, none of them a fix, into out:
// each moves sumLast and sumNext on by its run's step, steps[0] for every
// value when steps holds one. It returns both sums.
func readSteps[T sorter.Value](out []Entry[T], vals []T, src []uint8, steps []int64, sumLast, sumNext int64) (int64, int64) {
	vals, src = vals[:len(out)], src[:len(out)]
	if len(steps) == 1 {
		d := steps[0]
		for i := range out {
			sumLast += d
			out[i] = Entry[T]{V: vals[i], RMin: sumLast, RMax: sumNext + 1}
			sumNext += d
		}
		return sumLast, sumNext
	}
	for i := range out {
		d := steps[src[i]]
		sumLast += d
		out[i] = Entry[T]{V: vals[i], RMin: sumLast, RMax: sumNext + 1}
		sumNext += d
	}
	return sumLast, sumNext
}
