package gpustream

import (
	"fmt"

	"gpustream/internal/keyed"
)

// Massive-cardinality keyed estimation: a per-key quantile estimate for
// every key in the stream, at tens of bytes per key. Keys start in a pooled
// frugal tier (one frugal-streaming tracker each — internal/frugal) and are
// promoted to dedicated eps-approximate GK summaries when the built-in
// heavy-hitter oracle sees them cross the promotion support, with the
// frugal estimate seeding the promoted summary so nothing is replayed.
// DESIGN.md §17 covers the tier machinery and its error accounting.
//
//	eng := gpustream.NewOf[float32](gpustream.BackendGPU)
//	ke := gpustream.NewKeyedEstimator[uint64](eng, 0.01, 0.001)
//	ke.Process(flowID, latency)
//	p50, ok := ke.Quantile(flowID, 0.5)

// KeyedEstimator is the two-tier keyed quantile estimator over (K, T)
// observations. Both type parameters are stack value types: keys feed the
// heavy-hitter oracle's sorting pipeline and cross processes in keyed
// snapshots, so K needs an order and a wire encoding, not just equality.
type KeyedEstimator[K Value, T Value] = keyed.Estimator[K, T]

// KeyedSnapshot is the immutable view of a KeyedEstimator. It answers
// per-key queries rather than implementing Snapshot[T]; use the keyed wire
// entry points (MarshalKeyedSnapshot and friends) to move it across
// processes.
type KeyedSnapshot[K Value, T Value] = keyed.Snapshot[K, T]

// KeyedTierStats reports a keyed estimator's tier occupancy: per-tier key
// counts and the promotion rate, as surfaced through Engine.Stats.
type KeyedTierStats = keyed.TierStats

// KeyedOption configures a KeyedEstimator (WithKeyedSeed).
type KeyedOption = keyed.Option

// WithKeyedSeed seeds the keyed frugal tier's shared randomized rank gates.
func WithKeyedSeed(seed uint64) KeyedOption { return keyed.WithSeed(seed) }

// NewKeyedEstimator returns a keyed estimator over (K, T) observations
// backed by e's sorter for the heavy-hitter oracle: every key tracked
// frugally from its first observation, keys whose share of the stream
// crosses support promoted to dedicated eps-approximate GK summaries. The
// estimator registers with the engine, so Engine.Stats reports its oracle
// pipeline telemetry plus per-tier key counts and promotion rate.
func NewKeyedEstimator[K Value, T Value](e *Engine[T], eps, support float64, opts ...KeyedOption) *KeyedEstimator[K, T] {
	est := keyed.NewEstimator[K, T](eps, support, newBackendSorter[K](e.backend), opts...)
	e.register(tracker[T]{kind: "keyed", est: est})
	return est
}

// MarshalKeyedSnapshot encodes a keyed snapshot in the versioned binary
// wire format (family FamilyKeyed, with a second tag byte for the key
// type).
func MarshalKeyedSnapshot[K Value, T Value](s *KeyedSnapshot[K, T]) ([]byte, error) {
	return s.MarshalBinary()
}

// UnmarshalKeyedSnapshot decodes a keyed snapshot blob produced by
// MarshalKeyedSnapshot in any process. Both instantiation types must match
// the blob's tags. Corrupt, truncated, or version-mismatched input returns
// an error wrapping the wire sentinel errors — never a panic.
func UnmarshalKeyedSnapshot[K Value, T Value](data []byte) (*KeyedSnapshot[K, T], error) {
	return keyed.UnmarshalSnapshot[K, T](data)
}

// MergeKeyedSnapshots combines two keyed snapshots over disjoint substreams
// into one over their union: key spaces union, promoted summaries merge
// under the GK rank-combination rule, and frugal-vs-promoted conflicts
// resolve conservatively (the summary wins; the frugal side folds in as a
// count-weighted point mass). Snapshots tracking different frugal target
// quantiles fail with an error wrapping keyed.ErrMismatchedConfig.
func MergeKeyedSnapshots[K Value, T Value](a, b *KeyedSnapshot[K, T]) (*KeyedSnapshot[K, T], error) {
	return keyed.MergeSnapshots(a, b)
}

// MergeAllKeyed folds MergeKeyedSnapshots left to right over one or more
// keyed snapshots. The per-key merge rules are commutative and
// tolerance-associative (partition-order metamorphic tests pin this), so
// the fold order does not affect the guarantees.
func MergeAllKeyed[K Value, T Value](snaps ...*KeyedSnapshot[K, T]) (*KeyedSnapshot[K, T], error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("gpustream: MergeAllKeyed of no snapshots")
	}
	acc := snaps[0]
	for _, s := range snaps[1:] {
		var err error
		if acc, err = MergeKeyedSnapshots(acc, s); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
