package gpustream_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpustream"
	"gpustream/internal/stream"
)

// Goroutine hygiene: Close (and CloseContext, even when its deadline expires
// mid-drain) must terminate every goroutine an estimator started — shard
// workers and async sort stages. Each
// scenario snapshots runtime.NumGoroutine before building the estimator and
// polls after Close until the count returns to the baseline.

// settleGoroutines polls until the live goroutine count drops back to at
// most baseline, failing after five seconds. A small grace loop absorbs
// unrelated runtime goroutines finishing up.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; stage goroutines don't rely on them
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leakScenario ingests a multi-window stream into the estimator built by
// mk, queries it, closes it, and demands the goroutine count settles.
func leakScenario(t *testing.T, name string, run func(data []float32)) {
	t.Run(name, func(t *testing.T) {
		data := stream.Zipf(12_000, 1.2, 500, 7)
		baseline := runtime.NumGoroutine()
		run(data)
		settleGoroutines(t, baseline)
	})
}

func TestCloseTerminatesGoroutines(t *testing.T) {
	for _, mode := range []struct {
		name  string
		eopts []gpustream.EstimatorOption
	}{
		{name: "sync"},
		{
			name:  "async",
			eopts: []gpustream.EstimatorOption{gpustream.WithAsyncIngestion()},
		},
	} {
		eng := gpustream.New(gpustream.BackendGPU)
		leakScenario(t, "frequency/"+mode.name, func(data []float32) {
			est := eng.NewFrequencyEstimator(0.005, mode.eopts...)
			est.ProcessSlice(data)
			_ = est.Query(0.01)
			est.Close()
		})
		leakScenario(t, "quantile/"+mode.name, func(data []float32) {
			est := eng.NewQuantileEstimator(0.01, mode.eopts...)
			est.ProcessSlice(data)
			_ = est.Query(0.5)
			est.Close()
		})
		leakScenario(t, "sliding-frequency/"+mode.name, func(data []float32) {
			est := eng.NewSlidingFrequency(0.01, 2_000, mode.eopts...)
			est.ProcessSlice(data)
			_ = est.Query(0.02)
			est.Close()
		})
		leakScenario(t, "sliding-quantile/"+mode.name, func(data []float32) {
			est := eng.NewSlidingQuantile(0.01, 2_000, mode.eopts...)
			est.ProcessSlice(data)
			_ = est.Query(0.5)
			est.Close()
		})
		leakScenario(t, "parallel-frequency/"+mode.name, func(data []float32) {
			popts := append([]gpustream.EstimatorOption{gpustream.WithBatchSize(512)}, mode.eopts...)
			est := eng.NewParallelFrequencyEstimator(0.005, 4, popts...)
			est.ProcessSlice(data)
			est.Close()
			_ = est.Query(0.01)
		})
		leakScenario(t, "parallel-quantile/"+mode.name, func(data []float32) {
			popts := append([]gpustream.EstimatorOption{gpustream.WithBatchSize(512)}, mode.eopts...)
			est := eng.NewParallelQuantileEstimator(0.01, 4, popts...)
			est.ProcessSlice(data)
			est.Close()
			_ = est.Query(0.5)
		})
		// Auto-backend estimators carry adaptive controllers (which own no
		// goroutines of their own) over pipelines that swap sorters at
		// runtime; Close must still terminate every stage goroutine,
		// including async helpers of sorters the controller probed in.
		auto := gpustream.New(gpustream.BackendAuto)
		leakScenario(t, "auto-quantile/"+mode.name, func(data []float32) {
			est := auto.NewQuantileEstimator(0.01, mode.eopts...)
			est.ProcessSlice(data)
			_ = est.Query(0.5)
			est.Close()
		})
		leakScenario(t, "auto-parallel-frequency/"+mode.name, func(data []float32) {
			popts := append([]gpustream.EstimatorOption{gpustream.WithBatchSize(512)}, mode.eopts...)
			est := auto.NewParallelFrequencyEstimator(0.005, 4, popts...)
			est.ProcessSlice(data)
			est.Close()
			_ = est.Query(0.01)
		})
		// CloseContext with an already-expired deadline takes the
		// abandoned-drain path: workers finish their queued batches on their
		// own and the deferred cleanup must still close the per-shard
		// estimators, async stages included.
		leakScenario(t, "parallel-close-expired/"+mode.name, func(data []float32) {
			popts := append([]gpustream.EstimatorOption{gpustream.WithBatchSize(256)}, mode.eopts...)
			est := eng.NewParallelFrequencyEstimator(0.005, 4, popts...)
			est.ProcessSlice(data)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_ = est.CloseContext(ctx) // error (context canceled) is the point
		})
	}
}

// moduleGoroutines counts the live goroutines this module's code started
// (the "created by gpustream/..." line of each stack), so the count is exact
// whatever the runtime and the test harness run beside them.
func moduleGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "\ncreated by gpustream/")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestAsyncGoroutineCount pins what the staged executor costs: an async
// serial estimator runs one goroutine, its sort stage (the caller merges),
// and a K-shard WithAsyncIngestion estimator 2K — K workers and K sort stages —
// while ingesting, queried, and after Close none.
func TestAsyncGoroutineCount(t *testing.T) {
	const k = 3
	eng := gpustream.New(gpustream.BackendCPU)
	data := stream.Zipf(12_000, 1.2, 500, 7)
	async := gpustream.WithAsyncIngestion()
	shards := []gpustream.EstimatorOption{gpustream.WithAsyncIngestion(), gpustream.WithBatchSize(512)}
	for _, tc := range []struct {
		name string
		want int
		mk   func() gpustream.Estimator[float32]
	}{
		{"frequency", 1, func() gpustream.Estimator[float32] { return eng.NewFrequencyEstimator(0.005, async) }},
		{"quantile", 1, func() gpustream.Estimator[float32] { return eng.NewQuantileEstimator(0.01, async) }},
		{"sliding-frequency", 1, func() gpustream.Estimator[float32] { return eng.NewSlidingFrequency(0.01, 2_000, async) }},
		{"sliding-quantile", 1, func() gpustream.Estimator[float32] { return eng.NewSlidingQuantile(0.01, 2_000, async) }},
		{"parallel-frequency", 2 * k, func() gpustream.Estimator[float32] {
			return eng.NewParallelFrequencyEstimator(0.005, k, shards...)
		}},
		{"parallel-quantile", 2 * k, func() gpustream.Estimator[float32] {
			return eng.NewParallelQuantileEstimator(0.01, k, shards...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := moduleGoroutines()
			est := tc.mk()
			check := func(when string) {
				t.Helper()
				if got := moduleGoroutines() - base; got != tc.want {
					t.Fatalf("%s: estimator runs %d goroutines, want %d", when, got, tc.want)
				}
			}
			check("constructed")
			est.ProcessSlice(data)
			est.Snapshot()
			check("ingested and queried")
			est.Close()
			deadline := time.Now().Add(5 * time.Second)
			for moduleGoroutines() != base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := moduleGoroutines() - base; got != 0 {
				t.Fatalf("after Close: %d goroutines left", got)
			}
		})
	}
}
