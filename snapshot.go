package gpustream

import (
	"encoding"
	"fmt"

	"gpustream/internal/frequency"
	"gpustream/internal/frugal"
	"gpustream/internal/quantile"
	"gpustream/internal/window"
	"gpustream/internal/wire"
)

// Snapshot wire format: every concrete snapshot type marshals to a compact,
// versioned, endian-stable binary blob (wire.Version: little-endian
// fixed-width header and count fields, each summary, frequency and bin
// record as zigzag varints of its difference from its neighbour) that any
// process can unmarshal and merge. Blobs of the older fixed-width version 1
// still decode; only the current version is written. Together
// with Merge and TreeEps this is the cross-process contract of a
// distributed aggregation tree: ingest workers run at TreeEps(eps, h),
// marshal their snapshots, and each aggregation level unmarshals and merges
// children, keeping the end-to-end answer eps-approximate (DESIGN.md
// section 12). cmd/snapmerge is the file-level fan-in tool built on it.

// ErrNotMergeable is wrapped by Merge when the two snapshots cannot be
// combined: different families, or a snapshot type with no merge rule.
var ErrNotMergeable = fmt.Errorf("gpustream: snapshots not mergeable")

// MarshalSnapshot encodes a snapshot in the versioned binary wire format.
// Every snapshot the unkeyed estimator families produce (and every snapshot
// UnmarshalSnapshot or Merge returns) supports it; the error case exists
// for foreign implementations of the Snapshot interface.
func MarshalSnapshot[T Value](s Snapshot[T]) ([]byte, error) {
	m, ok := s.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("gpustream: snapshot type %T does not support the wire format", s)
	}
	return m.MarshalBinary()
}

// UnmarshalSnapshot decodes a snapshot blob produced by MarshalSnapshot in
// any process, dispatching on the family tag in the header. The value type
// T must match the blob's value-type tag. Corrupt, truncated, or
// version-mismatched input returns an error wrapping the wire package's
// sentinel errors (wire.ErrBadMagic, wire.ErrVersion, wire.ErrValueType,
// wire.ErrFamily, wire.ErrTruncated, wire.ErrCorrupt) — never a panic.
func UnmarshalSnapshot[T Value](data []byte) (Snapshot[T], error) {
	h, err := wire.ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if want := wire.TagOf[T](); h.Tag != want {
		return nil, fmt.Errorf("gpustream: snapshot carries %v values, want %v: %w", h.Tag, want, wire.ErrValueType)
	}
	// Each arm converts the concrete pointer to the Snapshot interface only
	// on success, so a failed decode returns a true nil interface — not a
	// typed-nil pointer that compares non-nil.
	switch h.Family {
	case wire.FamilyFrequency:
		return wrapNonNil(frequency.UnmarshalSnapshot[T](data))
	case wire.FamilyQuantile:
		return wrapNonNil(quantile.UnmarshalSnapshot[T](data))
	case wire.FamilyWindowFrequency:
		return wrapNonNil(window.UnmarshalFrequencySnapshot[T](data))
	case wire.FamilyWindowQuantile:
		return wrapNonNil(window.UnmarshalQuantileSnapshot[T](data))
	case wire.FamilyFrugal:
		return wrapNonNil(frugal.UnmarshalSnapshot[T](data))
	case wire.FamilyKeyed:
		// Keyed snapshots answer per-key queries, not the Snapshot[T]
		// surface, and carry a second type parameter the dispatcher cannot
		// infer — they decode through UnmarshalKeyedSnapshot[K, T].
		return nil, fmt.Errorf("gpustream: keyed snapshots decode via UnmarshalKeyedSnapshot, not UnmarshalSnapshot: %w", wire.ErrFamily)
	}
	return nil, fmt.Errorf("gpustream: unknown snapshot family %d: %w", uint8(h.Family), wire.ErrFamily)
}

// wrapNonNil lifts a concrete (snapshot, error) pair into the Snapshot
// interface, converting the pointer only on success so a failed decode
// returns a true nil interface — never a typed-nil pointer that compares
// non-nil.
func wrapNonNil[T Value, S Snapshot[T]](s S, err error) (Snapshot[T], error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Merge combines two snapshots of the same family taken over disjoint
// substreams — typically in different processes, exchanged through the wire
// format — into one snapshot over their union, using the shard merge rules:
//
//   - quantile: the GK sensor-network rank-combination rule; the merged
//     summary is max(epsA, epsB)-approximate over the combined stream.
//   - frequency: value-aligned addition of estimated counts and undercount
//     bounds; undercounts are additive across disjoint substreams, so the
//     no-false-negative guarantee survives.
//   - sliding windows: the per-process windows merge into one combined
//     window of WA+WB elements with the same rules applied to the window
//     contents.
//   - frugal: per target quantile, the tracker backed by more observations
//     wins (deterministic tie-break); the merged estimate stays inside the
//     input envelope but remains heuristic, like everything frugal.
//
// Merging is error-preserving at any fan-in, so an aggregation tree of
// height h whose ingest workers run at TreeEps(eps, h) answers within eps
// end to end. Mismatched families (or foreign snapshot implementations)
// return an error wrapping ErrNotMergeable. The inputs are not mutated.
func Merge[T Value](a, b Snapshot[T]) (Snapshot[T], error) {
	switch x := a.(type) {
	case *frequency.Snapshot[T]:
		if y, ok := b.(*frequency.Snapshot[T]); ok {
			return frequency.MergeSnapshots(x, y), nil
		}
	case *quantile.Snapshot[T]:
		if y, ok := b.(*quantile.Snapshot[T]); ok {
			return quantile.MergeSnapshots(x, y), nil
		}
	case *window.FrequencySnapshot[T]:
		if y, ok := b.(*window.FrequencySnapshot[T]); ok {
			return window.MergeFrequencySnapshots(x, y), nil
		}
	case *window.QuantileSnapshot[T]:
		if y, ok := b.(*window.QuantileSnapshot[T]); ok {
			return window.MergeQuantileSnapshots(x, y), nil
		}
	case *frugal.Snapshot[T]:
		if y, ok := b.(*frugal.Snapshot[T]); ok {
			// Frugal trackers merge by keeping the better-backed estimate
			// per target; mismatched phi banks fail (ErrMismatchedPhis).
			return wrapNonNil(frugal.MergeSnapshots(x, y))
		}
	}
	return nil, fmt.Errorf("%w: %T and %T", ErrNotMergeable, a, b)
}

// MergeAll folds Merge left to right over one or more snapshots. The merge
// rules are associative in their guarantees (partition-order metamorphic
// tests pin this), so the fold order does not affect correctness.
func MergeAll[T Value](snaps ...Snapshot[T]) (Snapshot[T], error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("gpustream: MergeAll of no snapshots")
	}
	acc := snaps[0]
	for _, s := range snaps[1:] {
		var err error
		if acc, err = Merge(acc, s); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// TreeEps sizes the per-worker error budget for an aggregation tree of
// height h (h = 1 is a lone estimator, h = 2 is workers + a root merge,
// h = 3 adds an intermediate aggregator level): workers run at eps/h so the
// end-to-end answer stays eps-approximate even if every level prunes its
// merged summary with its share of the budget. Merging alone preserves the
// worker bound (the GK rule takes the max, lossy undercounts stay additive),
// so eps/h leaves each level 1/h of the budget as compression headroom —
// the same sizing rule the in-process h=2 shard engine uses with eps/2
// (DESIGN.md sections 7 and 12). It panics on eps outside (0, 1) or h < 1,
// matching the estimator constructors.
func TreeEps(eps float64, h int) float64 {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("gpustream: eps %v out of (0, 1)", eps))
	}
	if h < 1 {
		panic(fmt.Sprintf("gpustream: tree height %d < 1", h))
	}
	return eps / float64(h)
}
