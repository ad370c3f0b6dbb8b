package summary

import (
	"math"
	"math/rand"
	"testing"

	"gpustream/internal/sorter"
)

// compactTree is a random tree of unpruned merges over level-0 samples,
// built twice: kept compact (SamplePairInto, MergeCompactInto) and eagerly
// by the references (fromSortedWindowRef over the pair's sorted
// concatenation, mergeRef), which share no loop with the reader.
func compactTree[T sorter.Value](rng *rand.Rand, depth int, eps float64, values func(n int) []T) (*Compact[T], *Summary[T]) {
	if depth == 0 || rng.Intn(3) == 0 {
		a, b := values(1+rng.Intn(300)), values(rng.Intn(300))
		both := values(0)
		both = append(append(both, a...), b...)
		sortKeys(both)
		return SamplePairInto(nil, a, b, eps), fromSortedWindowRef(both, eps)
	}
	ca, ea := compactTree(rng, depth-1, eps, values)
	cb, eb := compactTree(rng, depth-1, eps, values)
	if rng.Intn(4) == 0 { // a bucket merged with itself
		cb, eb = ca, ea
	}
	return MergeCompactInto(nil, ca, cb), mergeRef(ea, eb)
}

// sortKeys sorts vals in the key-radix sort's order.
func sortKeys[T sorter.Value](vals []T) {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && sorter.OrderedKey(vals[j]) < sorter.OrderedKey(vals[j-1]); j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
}

// checkCompactTrees holds every compact tree's entries, read through the
// reader, to the eager tree's, bit for bit, with its certificate and its
// entries as a merge part: merged whole with another tree and merged and
// pruned.
func checkCompactTrees[T sorter.Value](t *testing.T, seed int64, values func(rng *rand.Rand, n int) []T) {
	rng := rand.New(rand.NewSource(seed))
	vals := func(n int) []T { return values(rng, n) }
	for trial := range 300 {
		eps := []float64{0.2, 0.05, 0.01}[trial%3]
		c, e := compactTree(rng, 1+trial%5, eps, vals)
		if got := c.Summary(); !sameBits(got, e) || c.Size() != e.Size() {
			t.Fatalf("trial %d: %d runs, %d entries: compact reads\n%+v\nmerged eagerly\n%+v", trial, len(c.Runs), c.Size(), got, e)
		}
		if got, want := c.Certificate(), e.Certificate(); got != want {
			t.Fatalf("trial %d: compact certifies %v, eager %v", trial, got, want)
		}
		c2, e2 := compactTree(rng, 2, eps, vals)
		if got, want := MergeInto(nil, c, c2), mergeRef(e, e2); !sameBits(got, want) {
			t.Fatalf("trial %d: compact parts merge to\n%+v\nwant\n%+v", trial, got, want)
		}
		budget := 1 + rng.Intn(e.Size()+e2.Size()+1)
		if got, want := MergePruneInto(nil, c2, c, budget), chainRef([]*Summary[T]{e2, e}, budget); !sameBits(got, want) {
			t.Fatalf("trial %d: compact parts pruned to %d:\n%+v\nwant\n%+v", trial, budget, got, want)
		}
	}
}

// compactSpecials are values a float compact merge must order as MergeInto
// does: ±0 tie under <=, and a NaN compares false either way.
var compactSpecials = []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), -1.5, 2.5}

// TestCompactMatchesEagerMerges: a tree of unpruned merges kept compact
// reads back as the eager merges' entries, at float32 and float64 with
// signed zeros, NaNs and infinities among duplicates, and at uint64 with
// keys whose top bit is set.
func TestCompactMatchesEagerMerges(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		checkCompactTrees(t, 1, func(rng *rand.Rand, n int) []float32 {
			out := make([]float32, n)
			for i := range out {
				if x := rng.Intn(20); x < len(compactSpecials) {
					out[i] = float32(compactSpecials[x])
				} else {
					out[i] = float32(x - 14)
				}
			}
			sortKeys(out)
			return out
		})
	})
	t.Run("float64", func(t *testing.T) {
		checkCompactTrees(t, 2, func(rng *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				if x := rng.Intn(12); x < len(compactSpecials) {
					out[i] = compactSpecials[x]
				} else {
					out[i] = float64(x)
				}
			}
			sortKeys(out)
			return out
		})
	})
	t.Run("uint64", func(t *testing.T) {
		checkCompactTrees(t, 3, func(rng *rand.Rand, n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 1<<63 + uint64(rng.Intn(9))
			}
			sortKeys(out)
			return out
		})
	})
}

// TestCompactMergeRunLimit: MaxRuns runs merge compact, and one more
// panics.
func TestCompactMergeRunLimit(t *testing.T) {
	one := SamplePairInto(nil, []float32{1, 2}, nil, 0.5)
	half := one
	for half = one; len(half.Runs) < MaxRuns/2; {
		half = MergeCompactInto(nil, half, half)
	}
	full := MergeCompactInto(nil, half, half)
	if len(full.Runs) != MaxRuns || !sameBits(full.Summary(), mergeRef(half.Summary(), half.Summary())) {
		t.Fatalf("%d runs merged to %d", 2*len(half.Runs), len(full.Runs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a merge past MaxRuns did not panic")
		}
	}()
	MergeCompactInto(nil, full, one)
}
