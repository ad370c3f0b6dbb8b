package keyed

import (
	"errors"
	"fmt"

	"gpustream/internal/frequency"
	"gpustream/internal/frugal"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// ErrMismatchedConfig is wrapped by MergeSnapshots when two keyed snapshots
// track different frugal-tier target quantiles and therefore cannot be
// combined.
var ErrMismatchedConfig = errors.New("keyed: snapshots track different frugal target quantiles")

// MergeSnapshots combines two keyed snapshots over disjoint substreams into
// one over their union. The key space is unioned; per key the rules are the
// conservative ones of the tier hierarchy, so merging never launders a
// heuristic estimate into a rank guarantee:
//
//   - promoted + promoted: the GK sensor-network rank-combination rule
//     (summary.Merge); the merged summary is max-eps-approximate over the
//     combined per-key stream.
//   - promoted + frugal: the summary wins the tier; the frugal side is
//     folded in as a point mass spanning ranks [1, cnt] — weighted by its
//     oracle backing count, with rank uncertainty covering everything that
//     side saw. The key stays promoted (promotion is monotone under merge).
//   - frugal + frugal: a point estimate has no rank algebra, so the tracker
//     backed by more observations wins, ties breaking deterministically
//     toward the smaller estimate in ordered-key space (then the smaller
//     control byte) — symmetric, and always inside the input envelope. The
//     backing counts add.
//
// The promoted set of the result is the union of the inputs' promoted sets
// and every per-key rule is commutative, which is what makes the merge
// partition-order invariant. The oracles merge by value-aligned addition of
// counts and undercount bounds, exactly like sharded frequency ingestion.
//
// Both snapshots must track the same frugal target quantile; otherwise the
// error wraps ErrMismatchedConfig. The merged promotion support is the
// larger (more conservative) of the two. The inputs are not mutated.
func MergeSnapshots[K sorter.Value, T sorter.Value](a, b *Snapshot[K, T]) (*Snapshot[K, T], error) {
	if a.phi != b.phi {
		return nil, fmt.Errorf("keyed: frugal targets %v vs %v: %w", a.phi, b.phi, ErrMismatchedConfig)
	}
	out := &Snapshot[K, T]{
		phi:        a.phi,
		support:    a.support,
		n:          a.n + b.n,
		promotions: a.promotions + b.promotions,
		oracle:     frequency.MergeSnapshots(a.oracle, b.oracle),
	}
	if b.support > out.support {
		out.support = b.support
	}
	out.frugal = make([]FrugalEntry[K, T], 0, len(a.frugal)+len(b.frugal))
	out.promo = make([]PromotedEntry[K, T], 0, len(a.promo)+len(b.promo))

	// Walk the union of both key spaces in ascending ordered-key order: each
	// side exposes at most one entry per key (tiers are disjoint within a
	// snapshot), so a four-cursor merge visits every key exactly once and
	// emits the output tiers already sorted.
	fa, pa, fb, pb := 0, 0, 0, 0
	for fa < len(a.frugal) || pa < len(a.promo) || fb < len(b.frugal) || pb < len(b.promo) {
		k := nextKey(a, b, fa, pa, fb, pb)
		var (
			sumA, sumB *summary.Summary[T]
			frA, frB   *FrugalEntry[K, T]
		)
		if fa < len(a.frugal) && a.frugal[fa].Key == k {
			frA = &a.frugal[fa]
			fa++
		}
		if pa < len(a.promo) && a.promo[pa].Key == k {
			sumA = a.promo[pa].Sum
			pa++
		}
		if fb < len(b.frugal) && b.frugal[fb].Key == k {
			frB = &b.frugal[fb]
			fb++
		}
		if pb < len(b.promo) && b.promo[pb].Key == k {
			sumB = b.promo[pb].Sum
			pb++
		}
		if sumA == nil && sumB == nil {
			out.frugal = append(out.frugal, mergeFrugal(k, frA, frB))
			continue
		}
		if frA != nil {
			sumA = pointMass[T](frA.Est, frA.Cnt, epsOf(sumB))
		}
		if frB != nil {
			sumB = pointMass[T](frB.Est, frB.Cnt, epsOf(sumA))
		}
		merged := sumA
		if sumA == nil {
			merged = sumB
		} else if sumB != nil {
			merged = summary.Merge(sumA, sumB)
		}
		out.promo = append(out.promo, PromotedEntry[K, T]{Key: k, Sum: merged})
	}
	return out, nil
}

// nextKey returns the smallest pending key across all four cursors.
func nextKey[K sorter.Value, T sorter.Value](a, b *Snapshot[K, T], fa, pa, fb, pb int) K {
	var best K
	have := false
	consider := func(k K) {
		if !have || sorter.OrderedKey(k) < sorter.OrderedKey(best) {
			best, have = k, true
		}
	}
	if fa < len(a.frugal) {
		consider(a.frugal[fa].Key)
	}
	if pa < len(a.promo) {
		consider(a.promo[pa].Key)
	}
	if fb < len(b.frugal) {
		consider(b.frugal[fb].Key)
	}
	if pb < len(b.promo) {
		consider(b.promo[pb].Key)
	}
	return best
}

// mergeFrugal resolves two frugal-tier entries of the same key (either may
// be nil) by frugal.PickTracker, with the observation counts as backing; the
// counts add.
func mergeFrugal[K sorter.Value, T sorter.Value](k K, a, b *FrugalEntry[K, T]) FrugalEntry[K, T] {
	if a == nil {
		return *b
	}
	if b == nil {
		return *a
	}
	est, ctl := frugal.PickTracker(a.Est, a.Ctl, a.Cnt, b.Est, b.Ctl, b.Cnt)
	return FrugalEntry[K, T]{Key: k, Est: est, Ctl: ctl, Cnt: a.Cnt + b.Cnt}
}

// pointMass is the summary standing in for a frugal tracker when its key is
// promoted on the other side of a merge: the estimate as a single entry
// spanning ranks [1, cnt].
func pointMass[T sorter.Value](est T, cnt int64, eps float64) *summary.Summary[T] {
	if cnt < 1 {
		cnt = 1
	}
	return &summary.Summary[T]{
		Entries: []summary.Entry[T]{{V: est, RMin: 1, RMax: cnt}},
		N:       cnt,
		Eps:     eps,
	}
}

// epsOf reports a summary's error bound, defaulting to 0 for nil — the
// point mass carries no eps budget of its own.
func epsOf[T sorter.Value](s *summary.Summary[T]) float64 {
	if s == nil {
		return 0
	}
	return s.Eps
}
