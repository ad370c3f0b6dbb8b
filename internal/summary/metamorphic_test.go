package summary

import (
	"math/rand"
	"sort"
	"testing"

	"gpustream/internal/oracle"
)

// buildParts assigns each stream element to one of k parts at random and
// returns one FromSortedWindow summary per non-empty part.
func buildParts(rng *rand.Rand, data []float32, k int, eps float64) []*Summary[float32] {
	parts := make([][]float32, k)
	for _, v := range data {
		i := rng.Intn(k)
		parts[i] = append(parts[i], v)
	}
	var out []*Summary[float32]
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		out = append(out, FromSortedWindow(p, eps))
	}
	return out
}

// mergeInOrder folds the summaries left-to-right in the given visit order.
func mergeInOrder(parts []*Summary[float32], order []int) *Summary[float32] {
	var acc *Summary[float32]
	for _, idx := range order {
		if acc == nil {
			acc = parts[idx]
			continue
		}
		acc = Merge(acc, parts[idx])
	}
	return acc
}

// mergePairwiseTree merges the summaries as a balanced binary tree (the
// sensor-tree shape) over the given visit order.
func mergePairwiseTree(parts []*Summary[float32], order []int) *Summary[float32] {
	level := make([]*Summary[float32], len(order))
	for i, idx := range order {
		level[i] = parts[idx]
	}
	for len(level) > 1 {
		var next []*Summary[float32]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, Merge(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// TestMergePartitionOrderMetamorphic is the metamorphic property sharded
// ingestion relies on: partition a stream randomly, summarize each part,
// and merge the parts in any order and any tree shape — the result must
// answer rank queries within the same bound as one-shot construction from
// the fully sorted stream. This catches order-dependence bugs in Merge
// before internal/shard depends on it.
func TestMergePartitionOrderMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2_000 + rng.Intn(4_000)
		eps := []float64{0.2, 0.05, 0.02}[trial%3]
		data := make([]float32, n)
		for i := range data {
			switch trial % 2 {
			case 0:
				data[i] = rng.Float32()
			default:
				data[i] = float32(rng.Intn(50)) // heavy duplication
			}
		}
		sortedAll := append([]float32(nil), data...)
		sort.Slice(sortedAll, func(i, j int) bool { return sortedAll[i] < sortedAll[j] })

		oneShot := FromSortedWindow(sortedAll, eps)
		if got := oracle.New(sortedAll).GridError(oneShot.QueryRank); got > oneShot.Eps+1e-9 {
			t.Fatalf("trial %d: one-shot construction violates its own bound: %g > %g",
				trial, got, oneShot.Eps)
		}

		k := 2 + rng.Intn(7)
		parts := buildParts(rng, data, k, eps)

		for round := 0; round < 4; round++ {
			order := rng.Perm(len(parts))
			var merged *Summary[float32]
			if round%2 == 0 {
				merged = mergeInOrder(parts, order)
			} else {
				merged = mergePairwiseTree(parts, order)
			}
			if merged.N != int64(n) {
				t.Fatalf("trial %d round %d: merged N=%d want %d", trial, round, merged.N, n)
			}
			if err := merged.Validate(); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			// The merged summary carries Eps = max over parts; each part is
			// built with the same construction as one-shot, so the bound it
			// must meet is its own advertised Eps — identical in kind to the
			// one-shot bound, regardless of partition or merge order.
			if got := oracle.New(sortedAll).GridError(merged.QueryRank); got > merged.Eps+1e-9 {
				t.Errorf("trial %d round %d (k=%d, order %v): rank error %g > bound %g",
					trial, round, len(parts), order, got, merged.Eps)
			}
		}
	}
}
