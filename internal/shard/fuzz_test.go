package shard

import (
	"math"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/oracle"
	"gpustream/internal/samplesort"
	"gpustream/internal/sorter"
)

// checkShardedQuantile runs one sharded ingest at element type T with the
// given per-shard sorter factory and checks the merged rank guarantee
// against a full sort.
func checkShardedQuantile[T sorter.Value](t *testing.T, vals []T, k, batch int, newSorter func() sorter.Sorter[T]) {
	t.Helper()
	const eps = 0.1
	n := int64(len(vals))
	q := NewQuantile(eps, n, k, newSorter, Config[T]{Batch: batch})
	q.ProcessSlice(vals)
	q.Close()
	if q.Count() != n {
		t.Fatalf("Count=%d want %d", q.Count(), n)
	}
	if s := q.Summary(); s == nil || s.N != n {
		t.Fatalf("merged summary N mismatch")
	} else if err := s.Validate(); err != nil {
		t.Fatalf("merged summary invalid: %v", err)
	}
	truth := oracle.New(vals)
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if d := truth.Distance(q.Query(phi), oracle.Target(phi, int64(n))); float64(d) > eps*float64(n)+1e-9 {
			t.Fatalf("k=%d batch=%d phi=%g: rank error %d > eps*N=%g",
				k, batch, phi, d, eps*float64(n))
		}
	}
}

// u64FromByte maps one fuzz byte to a uint64 stream value, steering a fifth
// of the byte space onto the integer boundary cases: zero, MaxUint64, and
// both sides of the MaxInt64 sign boundary — values no float64 (let alone
// float32) can represent exactly.
func u64FromByte(b byte) uint64 {
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return math.MaxInt64 // 2^63 - 1
	case 3:
		return math.MaxInt64 + 1 // 2^63
	default:
		return uint64(b)<<56 | uint64(b)
	}
}

// FuzzShardedQuantile feeds arbitrary byte streams through sharded
// ingestion (shard count and batch size derived from the input) and checks
// the merged rank guarantee against a full sort, mirroring the package's
// other fuzz harnesses (internal/frequency, internal/stream). Every input
// is run twice: once at float32 and once at uint64, where the byte-to-value
// map pins the integer boundaries (0, MaxUint64, MaxInt64±1).
func FuzzShardedQuantile(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{255, 9, 9, 9, 9, 1, 2, 3})
	// Integer-boundary seeds: bytes 0..3 hit u64FromByte's special cases,
	// so these streams mix 0, MaxUint64, and the MaxInt64 sign boundary.
	f.Add([]byte{2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{3, 7, 1, 1, 1, 17, 2, 64, 3, 0})
	f.Add([]byte{8, 2, 16, 0, 32, 1, 48, 2, 64, 3, 80})
	// High bit of the batch byte set: sample-sort shards.
	f.Add([]byte{5, 0x83, 9, 0, 1, 2, 3, 200, 100, 50})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		k := int(raw[0])%8 + 1
		batch := int(raw[1])%16 + 1
		f32 := make([]float32, 0, len(raw)-2)
		u64 := make([]uint64, 0, len(raw)-2)
		for _, b := range raw[2:] {
			f32 = append(f32, float32(b%64))
			u64 = append(u64, u64FromByte(b))
		}
		// The high bit of the batch byte selects the per-shard sorter, so
		// the corpus exercises quicksort and sample-sort shards alike.
		if raw[1]&0x80 != 0 {
			checkShardedQuantile(t, f32, k, batch, func() sorter.Sorter[float32] { return samplesort.NewSorter[float32]() })
			checkShardedQuantile(t, u64, k, batch, func() sorter.Sorter[uint64] { return samplesort.NewSorter[uint64]() })
		} else {
			checkShardedQuantile(t, f32, k, batch, func() sorter.Sorter[float32] { return cpusort.QuicksortSorter[float32]{} })
			checkShardedQuantile(t, u64, k, batch, func() sorter.Sorter[uint64] { return cpusort.QuicksortSorter[uint64]{} })
		}
	})
}
