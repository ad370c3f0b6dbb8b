package frugal

import (
	"fmt"

	"gpustream/internal/sorter"
)

// MergeSnapshots combines two frugal snapshots over disjoint substreams into
// one over their union. Frugal state is a point estimate, not a summary —
// there is no rank algebra to merge two trackers exactly — so the rule is the
// conservative one the keyed tier also uses: for each target quantile, keep
// the tracker backed by more data (the snapshot with the larger stream
// count), breaking ties deterministically toward the smaller estimate in
// ordered-key space. The merged estimate therefore always lies inside the
// envelope [min(estA, estB), max(estA, estB)] — it never invents a value
// neither input saw — and the rule is commutative.
//
// Both snapshots must track the same target-quantile bank; otherwise the
// error wraps ErrMismatchedPhis.
func MergeSnapshots[T sorter.Value](a, b *Snapshot[T]) (*Snapshot[T], error) {
	if len(a.phis) != len(b.phis) {
		return nil, fmt.Errorf("frugal: %d vs %d trackers: %w", len(a.phis), len(b.phis), ErrMismatchedPhis)
	}
	for i := range a.phis {
		if a.phis[i] != b.phis[i] {
			return nil, fmt.Errorf("frugal: tracker %d targets %v vs %v: %w", i, a.phis[i], b.phis[i], ErrMismatchedPhis)
		}
	}
	out := &Snapshot[T]{
		phis: a.phis,
		ests: make([]T, len(a.phis)),
		ctls: make([]uint8, len(a.phis)),
		n:    a.n + b.n,
	}
	for i := range a.phis {
		out.ests[i], out.ctls[i] = PickTracker(a.ests[i], a.ctls[i], a.n, b.ests[i], b.ctls[i], b.n)
	}
	return out, nil
}

// PickTracker resolves two frugal trackers of the same target: the one backed
// by more observations wins; equal backing breaks toward the smaller estimate
// in ordered-key space (then the smaller packed control byte), so the rule is
// symmetric in its arguments. The keyed tier merges its per-key trackers by
// it too.
func PickTracker[T sorter.Value](estA T, ctlA uint8, nA int64, estB T, ctlB uint8, nB int64) (T, uint8) {
	switch {
	case nA > nB:
		return estA, ctlA
	case nB > nA:
		return estB, ctlB
	}
	ka, kb := sorter.OrderedKey(estA), sorter.OrderedKey(estB)
	if ka < kb || (ka == kb && ctlA <= ctlB) {
		return estA, ctlA
	}
	return estB, ctlB
}
