package frequency

import (
	"math"

	"gpustream/internal/sorter"
)

// MergeSnapshots combines two lossy-counting snapshots over disjoint
// substreams into one over their union: a value-aligned linear merge that
// sums estimated frequencies and undercount bounds of equal values.
// Undercounts are additive across disjoint substreams — each input misses at
// most eps_i*N_i occurrences, so the merged summary misses at most
// max(epsA, epsB)*(NA+NB) — which makes the merged snapshot
// max(epsA, epsB)-approximate with the serial no-false-negative guarantee
// intact (DESIGN.md §14).
//
// It is the cross-process form of the shard merge rule: sharded ingestion
// folds it over its per-shard snapshots, and the aggregation tree folds it
// over per-process snapshots exchanged through the wire format. The inputs
// are not mutated and may be used afterwards.
func MergeSnapshots[T sorter.Value](a, b *Snapshot[T]) *Snapshot[T] {
	out := &Snapshot[T]{
		n:       a.n + b.n,
		eps:     math.Max(a.eps, b.eps),
		entries: make([]entry[T], 0, len(a.entries)+len(b.entries)),
	}
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		switch {
		case a.entries[i].value < b.entries[j].value:
			out.entries = append(out.entries, a.entries[i])
			i++
		case a.entries[i].value > b.entries[j].value:
			out.entries = append(out.entries, b.entries[j])
			j++
		default:
			e := a.entries[i]
			e.freq += b.entries[j].freq
			e.delta += b.entries[j].delta
			out.entries = append(out.entries, e)
			i++
			j++
		}
	}
	out.entries = append(out.entries, a.entries[i:]...)
	out.entries = append(out.entries, b.entries[j:]...)
	return out
}
