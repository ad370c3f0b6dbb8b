package shard

import (
	"errors"
	"math/rand"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/frequency"
	"gpustream/internal/oracle"
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/sorter"
)

func cpuSorter() sorter.Sorter[float32] { return cpusort.QuicksortSorter[float32]{} }

// genStream produces a deterministic pseudo-random stream with repeated
// values (so frequency queries have heavy hitters) drawn from one of a few
// shapes.
func genStream(rng *rand.Rand, n int, shape int) []float32 {
	out := make([]float32, n)
	switch shape % 3 {
	case 0: // uniform over a small domain: every value is frequent
		for i := range out {
			out[i] = float32(rng.Intn(64))
		}
	case 1: // skewed: geometric-ish over a larger domain
		for i := range out {
			v := 0
			for v < 1000 && rng.Intn(2) == 0 {
				v++
			}
			out[i] = float32(v)
		}
	default: // continuous uniform: all values distinct w.h.p.
		for i := range out {
			out[i] = rng.Float32()
		}
	}
	return out
}

// TestShardedQuantileWithinEps is property (a): for random streams, shard
// counts, and eps values, merged quantile ranks stay within eps*N of true
// ranks computed by a full sort.
func TestShardedQuantileWithinEps(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 4, 8} {
		for _, eps := range []float64{0.1, 0.02} {
			for shape := 0; shape < 3; shape++ {
				n := 20_000 + rng.Intn(10_000)
				data := genStream(rng, n, shape)
				q := NewQuantile(eps, int64(n), k, cpuSorter, Config[float32]{Batch: 777})
				q.ProcessSlice(data)
				q.Close()
				if got := q.Count(); got != int64(n) {
					t.Fatalf("k=%d: Count=%d want %d", k, got, n)
				}
				truth := oracle.New(data)
				for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
					if d := truth.Distance(q.Query(phi), oracle.Target(phi, int64(n))); float64(d) > eps*float64(n)+1e-9 {
						t.Errorf("k=%d eps=%g shape=%d phi=%g: rank error %d > eps*N=%g",
							k, eps, shape, phi, d, eps*float64(n))
					}
				}
			}
		}
	}
}

// TestShardedFrequencyNoFalseNegatives is property (b): frequency queries
// report every item above support s, and merged estimates never overcount
// nor undercount by more than eps*N.
func TestShardedFrequencyNoFalseNegatives(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 4, 8} {
		for _, eps := range []float64{0.02, 0.005} {
			for shape := 0; shape < 2; shape++ {
				n := 20_000 + rng.Intn(10_000)
				data := genStream(rng, n, shape)
				fq := NewFrequency(eps, k, cpuSorter, Config[float32]{Batch: 777})
				fq.ProcessSlice(data)
				fq.Close()
				exact := frequency.NewExact[float32]()
				exact.ProcessSlice(data)
				s := 4 * eps // support threshold
				reported := make(map[float32]bool)
				for _, it := range fq.Query(s) {
					reported[it.Value] = true
				}
				for _, it := range exact.Query(s) {
					if !reported[it.Value] {
						t.Errorf("k=%d eps=%g shape=%d: false negative for %v (true freq %d, sN=%g)",
							k, eps, shape, it.Value, it.Freq, s*float64(n))
					}
				}
				for v := range reported {
					truth := exact.Estimate(v)
					est := fq.Estimate(v)
					if est > truth {
						t.Errorf("k=%d: overcount on %v: est %d > true %d", k, v, est, truth)
					}
					if float64(truth-est) > eps*float64(n)+1e-9 {
						t.Errorf("k=%d: undercount beyond eps*N on %v: est %d true %d", k, v, est, truth)
					}
				}
			}
		}
	}
}

// TestSingleShardMatchesSerial is property (c): K=1 sharded output is
// bit-identical to the serial estimators fed the same stream.
func TestSingleShardMatchesSerial(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for shape := 0; shape < 3; shape++ {
		n := 15_000 + rng.Intn(5_000)
		data := genStream(rng, n, shape)
		const eps = 0.01

		sq := quantile.NewEstimator(eps, int64(n), cpuSorter())
		sq.ProcessSlice(data)
		pq := NewQuantile(eps, int64(n), 1, cpuSorter, Config[float32]{Batch: 1024})
		pq.ProcessSlice(data)
		pq.Close()
		if pq.ShardEps() != eps {
			t.Fatalf("K=1 shard eps %g, want full eps %g", pq.ShardEps(), eps)
		}
		for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			if got, want := pq.Query(phi), sq.Query(phi); got != want {
				t.Errorf("shape=%d quantile phi=%g: sharded %v != serial %v", shape, phi, got, want)
			}
		}

		sf := frequency.NewEstimator(eps, cpuSorter())
		sf.ProcessSlice(data)
		pf := NewFrequency(eps, 1, cpuSorter, Config[float32]{Batch: 1024})
		pf.ProcessSlice(data)
		pf.Close()
		gotItems := pf.Query(0.05)
		wantItems := sf.Query(0.05)
		if len(gotItems) != len(wantItems) {
			t.Fatalf("shape=%d: sharded reports %d items, serial %d", shape, len(gotItems), len(wantItems))
		}
		for i := range gotItems {
			if gotItems[i] != wantItems[i] {
				t.Errorf("shape=%d item %d: sharded %v != serial %v", shape, i, gotItems[i], wantItems[i])
			}
		}
		for v := float32(0); v < 64; v++ {
			if got, want := pf.Estimate(v), sf.Estimate(v); got != want {
				t.Errorf("shape=%d Estimate(%v): sharded %d != serial %d", shape, v, got, want)
			}
		}
	}
}

// TestShardedLifecycle exercises Flush/Close semantics and the small-stream
// paths (empty shards, partial batches, Process one-at-a-time).
func TestShardedLifecycle(t *testing.T) {
	t.Parallel()
	q := NewQuantile(0.1, 1000, 4, cpuSorter, Config[float32]{Batch: 8})
	for i := 0; i < 100; i++ {
		q.Process(float32(i))
	}
	q.Flush() // queryable mid-stream
	if med := q.Query(0.5); med < 30 || med > 70 {
		t.Fatalf("median %v out of range after Flush", med)
	}
	for i := 100; i < 200; i++ {
		q.Process(float32(i))
	}
	q.Close()
	q.Close() // idempotent
	if med := q.Query(0.5); med < 80 || med > 120 {
		t.Fatalf("median %v out of range after Close", med)
	}
	if q.Count() != 200 {
		t.Fatalf("Count=%d want 200", q.Count())
	}
	if q.SummaryEntries() <= 0 {
		t.Fatal("no summary entries retained")
	}
	if err := q.Process(1); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("Process after Close = %v, want pipeline.ErrClosed", err)
	}
	if err := q.ProcessSlice([]float32{1, 2}); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("ProcessSlice after Close = %v, want pipeline.ErrClosed", err)
	}
	if q.Count() != 200 {
		t.Fatalf("rejected ingestion changed Count to %d", q.Count())
	}
}

// TestShardedSmallStream keeps every value in the hand-off buffer (fewer
// values than one batch) and checks queries still see them.
func TestShardedSmallStream(t *testing.T) {
	t.Parallel()
	fq := NewFrequency(0.1, 4, cpuSorter, Config[float32]{})
	fq.ProcessSlice([]float32{5, 5, 5, 7})
	if got := fq.Estimate(5); got != 3 {
		t.Fatalf("Estimate(5)=%d want 3", got)
	}
	fq.Close()

	q := NewQuantile(0.1, 100, 4, cpuSorter, Config[float32]{})
	q.Process(42)
	if got := q.Query(0.5); got != 42 {
		t.Fatalf("Query(0.5)=%v want 42", got)
	}
	q.Close()
}

// TestShardedStats checks the perfmodel threading: per-shard stats
// reflect the ingested work and modeled time is positive and decreases as
// shards spread the sorting.
func TestShardedStats(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	data := genStream(rng, 60_000, 2)
	q := NewQuantile(0.01, int64(len(data)), 4, cpuSorter, Config[float32]{Batch: 1000})
	q.ProcessSlice(data)
	q.Close()
	_ = q.Query(0.5)

	stats := q.PerShardStats()
	if len(stats) != 4 {
		t.Fatalf("PerShardStats len %d want 4", len(stats))
	}
	var sorted int64
	busy := 0
	for _, c := range stats {
		sorted += c.SortedValues
		if c.SortedValues > 0 {
			busy++
		}
	}
	if sorted != int64(len(data)) {
		t.Fatalf("per-shard SortedValues sum %d want %d", sorted, len(data))
	}
	if busy < 2 {
		t.Fatalf("only %d shards did work; batches not spreading", busy)
	}
	if agg := q.Stats(); agg.SortedValues != int64(len(data)) || agg.Idle <= 0 {
		t.Fatalf("aggregate Stats = %+v; want full SortedValues and positive Idle", agg)
	}
	if q.QueryMergeOps() <= 0 {
		t.Fatal("query-time merges not counted")
	}
}
