package gpustream_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gpustream"
	"gpustream/internal/stream"
)

// Goroutine hygiene: Close (and CloseContext, even when its deadline expires
// mid-drain) must terminate every goroutine an estimator started — shard
// workers and async sort/merge stages. Each
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
		popts []gpustream.ParallelOption
	}{
		{name: "sync"},
		{
			name:  "async",
			eopts: []gpustream.EstimatorOption{gpustream.WithAsyncIngestion()},
			popts: []gpustream.ParallelOption{gpustream.WithAsyncShards()},
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
			est := eng.NewQuantileEstimator(0.01, int64(len(data)), mode.eopts...)
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
			popts := append([]gpustream.ParallelOption{gpustream.WithBatchSize(512)}, mode.popts...)
			est := eng.NewParallelFrequencyEstimator(0.005, 4, popts...)
			est.ProcessSlice(data)
			est.Close()
			_ = est.Query(0.01)
		})
		leakScenario(t, "parallel-quantile/"+mode.name, func(data []float32) {
			popts := append([]gpustream.ParallelOption{gpustream.WithBatchSize(512)}, mode.popts...)
			est := eng.NewParallelQuantileEstimator(0.01, int64(len(data)), 4, popts...)
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
			est := auto.NewQuantileEstimator(0.01, int64(len(data)), mode.eopts...)
			est.ProcessSlice(data)
			_ = est.Query(0.5)
			est.Close()
		})
		leakScenario(t, "auto-parallel-frequency/"+mode.name, func(data []float32) {
			popts := append([]gpustream.ParallelOption{gpustream.WithBatchSize(512)}, mode.popts...)
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
			popts := append([]gpustream.ParallelOption{gpustream.WithBatchSize(256)}, mode.popts...)
			est := eng.NewParallelFrequencyEstimator(0.005, 4, popts...)
			est.ProcessSlice(data)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_ = est.CloseContext(ctx) // error (context canceled) is the point
		})
	}
}
