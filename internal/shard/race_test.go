package shard

import (
	"math/rand"
	"sync"
	"testing"

	"gpustream/internal/oracle"
)

// TestConcurrentIngestAndQuery stress-tests the pool[float32] under -race: several
// producer goroutines ingest concurrently while other goroutines issue
// Query calls mid-stream; final answers must still satisfy the error bound.
func TestConcurrentIngestAndQuery(t *testing.T) {
	t.Parallel()
	const (
		producers = 4
		chunks    = 8
	)
	chunkLen := 4_000
	if testing.Short() {
		chunkLen = 1_000
	}
	const eps = 0.05

	q := NewQuantile(eps, 4, cpuSorter, Config[float32]{Batch: 512})
	fq := NewFrequency(eps, 4, cpuSorter, Config[float32]{Batch: 512})

	// Seed both so mid-stream queries never hit an empty stream.
	q.Process(0)
	fq.Process(0)
	q.Flush()
	fq.Flush()

	var all [][]float32
	var allMu sync.Mutex
	var prodWg, queryWg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		prodWg.Add(1)
		go func(p int) {
			defer prodWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for c := 0; c < chunks; c++ {
				chunk := genStream(rng, chunkLen, p%3)
				allMu.Lock()
				all = append(all, chunk)
				allMu.Unlock()
				if c%2 == 0 {
					q.ProcessSlice(chunk)
					fq.ProcessSlice(chunk)
				} else {
					for _, v := range chunk {
						q.Process(v)
						fq.Process(v)
					}
				}
			}
		}(p)
	}
	// Concurrent queriers: answers mid-stream are approximate over whatever
	// has been absorbed; the point is that they are race-free and return.
	for i := 0; i < 2; i++ {
		queryWg.Add(1)
		go func() {
			defer queryWg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = q.Query(0.5)
				_ = fq.Query(0.1)
				_ = fq.Estimate(1)
			}
		}()
	}
	prodWg.Wait()
	close(done)
	queryWg.Wait()

	q.Close()
	fq.Close()

	var flat []float32
	flat = append(flat, 0) // the seed value
	allMu.Lock()
	for _, c := range all {
		flat = append(flat, c...)
	}
	allMu.Unlock()
	truth := oracle.New(flat)
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		r := max(int64(phi*float64(truth.N())), 1)
		if d := truth.Distance(q.Query(phi), r); float64(d) > eps*float64(truth.N())+1e-9 {
			t.Errorf("phi=%g: rank error %d > eps*N after concurrent ingest", phi, d)
		}
	}
}

// TestConcurrentFlush checks that overlapping Flush calls from multiple
// goroutines are safe and leave nothing buffered.
func TestConcurrentFlush(t *testing.T) {
	t.Parallel()
	q := NewQuantile(0.05, 3, cpuSorter, Config[float32]{Batch: 64})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 50; i++ {
				q.ProcessSlice(genStream(rng, 100, 0))
				q.Flush()
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	if got := q.Count(); got != 4*50*100 {
		t.Fatalf("Count=%d want %d", got, 4*50*100)
	}
	if s := q.Summary(); s == nil || s.N != q.Count() {
		t.Fatalf("summary N does not match ingested count")
	}
}
