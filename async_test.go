package gpustream_test

import (
	"reflect"
	"runtime"
	"testing"

	"gpustream"
	"gpustream/internal/frequency"
	"gpustream/internal/gpusort"
	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
)

// Staged asynchronous ingestion must be invisible to queries: the async
// executor sorts windows on a stage goroutine overlapping the previous
// window's merge/compress, but windows still enter the sort stage in arrival
// order, are sorted by the same sorter instance one at a time, and merge in
// order — so every answer, summary size, and operation counter must be
// bit-identical to synchronous ingestion of the same stream.

func asyncStream(n int) []float32 {
	return stream.Zipf(n, 1.2, n/50+10, 123)
}

// counterStats projects pipeline.Stats onto its deterministic operation
// counters, dropping the measured wall-clock fields (which legitimately
// differ between sync and async runs).
type counterStats struct {
	Windows, SortedValues, MergeOps, CompressOps int64
}

func counters(s gpustream.Stats) counterStats {
	return counterStats{
		Windows:      s.Windows,
		SortedValues: s.SortedValues,
		MergeOps:     s.MergeOps,
		CompressOps:  s.CompressOps,
	}
}

// pinIdentical fails unless the sync and async answers (and counters) match
// exactly.
func pinIdentical(t *testing.T, name string, sync, async any) {
	t.Helper()
	if !reflect.DeepEqual(sync, async) {
		t.Fatalf("%s: async ingestion diverged from sync:\n  sync:  %v\n  async: %v", name, sync, async)
	}
}

func TestAsyncBitIdenticalFrequency(t *testing.T) {
	const n = 60_000
	data := asyncStream(n)
	run := func(opts ...gpustream.EstimatorOption) any {
		est := gpustream.New(gpustream.BackendGPU).NewFrequencyEstimator(0.002, opts...)
		est.ProcessSlice(data)
		ans := struct {
			Items    []gpustream.Item[float32]
			Est      []int64
			Size     int
			Counters counterStats
		}{Items: est.Query(0.01), Size: est.SummarySize()}
		for _, v := range []float32{0, 1, 5, 17, 1e6} {
			ans.Est = append(ans.Est, est.Estimate(v))
		}
		ans.Counters = counters(est.Stats())
		est.Close()
		return ans
	}
	pinIdentical(t, "frequency", run(), run(gpustream.WithAsyncIngestion()))
}

func TestAsyncBitIdenticalQuantile(t *testing.T) {
	const n = 60_000
	data := asyncStream(n)
	// A host-native sorter and the GPU simulator, whose per-sort state the
	// stage goroutine must keep to one window at a time: both async
	// executions are pinned.
	for _, backend := range []gpustream.Backend{gpustream.BackendGPU, gpustream.BackendSampleSort} {
		run := func(opts ...gpustream.EstimatorOption) any {
			est := gpustream.New(backend).NewQuantileEstimator(0.005, opts...)
			est.ProcessSlice(data)
			ans := struct {
				Qs       []float32
				Entries  int
				Buckets  int
				Counters counterStats
			}{Entries: est.SummaryEntries(), Buckets: est.Buckets()}
			for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
				ans.Qs = append(ans.Qs, est.Query(phi))
			}
			ans.Counters = counters(est.Stats())
			est.Close()
			return ans
		}
		pinIdentical(t, "quantile/"+backend.String(), run(), run(gpustream.WithAsyncIngestion()))
	}
}

func TestAsyncBitIdenticalSlidingFrequency(t *testing.T) {
	const n = 60_000
	data := asyncStream(n)
	run := func(opts ...gpustream.EstimatorOption) any {
		est := gpustream.New(gpustream.BackendGPU).NewSlidingFrequency(0.01, 8_000, opts...)
		est.ProcessSlice(data)
		ans := struct {
			Full     []gpustream.WindowItem[float32]
			Sub      []gpustream.WindowItem[float32]
			Est      int64
			Counters counterStats
		}{Full: est.Query(0.02), Sub: est.QueryWindow(0.02, 3_000), Est: est.Estimate(1)}
		ans.Counters = counters(est.Stats())
		est.Close()
		return ans
	}
	pinIdentical(t, "sliding-frequency", run(), run(gpustream.WithAsyncIngestion()))
}

func TestAsyncBitIdenticalSlidingQuantile(t *testing.T) {
	const n = 60_000
	data := asyncStream(n)
	run := func(opts ...gpustream.EstimatorOption) any {
		est := gpustream.New(gpustream.BackendGPU).NewSlidingQuantile(0.01, 8_000, opts...)
		est.ProcessSlice(data)
		ans := struct {
			Qs       []float32
			Counters counterStats
		}{}
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			ans.Qs = append(ans.Qs, est.Query(phi), est.QueryWindow(phi, 3_000))
		}
		ans.Counters = counters(est.Stats())
		est.Close()
		return ans
	}
	pinIdentical(t, "sliding-quantile", run(), run(gpustream.WithAsyncIngestion()))
}

// TestAsyncBitIdenticalParallel pins K-shard async ingestion (K pipeline
// stage pairs running concurrently) to the synchronous sharded answers, for
// both a serial-equivalent K=1 and a genuinely parallel K=4.
func TestAsyncBitIdenticalParallel(t *testing.T) {
	const n = 60_000
	data := asyncStream(n)
	for _, k := range []int{1, 4} {
		run := func(opts ...gpustream.EstimatorOption) (any, any) {
			opts = append(opts, gpustream.WithBatchSize(1024))
			eng := gpustream.New(gpustream.BackendGPU)
			fe := eng.NewParallelFrequencyEstimator(0.002, k, opts...)
			qe := eng.NewParallelQuantileEstimator(0.005, k, opts...)
			fe.ProcessSlice(data)
			qe.ProcessSlice(data)
			fe.Close()
			qe.Close()
			freq := struct {
				Items    []gpustream.Item[float32]
				Size     int
				Counters counterStats
			}{Items: fe.Query(0.01), Size: fe.SummarySize(), Counters: counters(fe.Stats())}
			quant := struct {
				Qs       []float32
				Entries  int
				Counters counterStats
			}{Entries: qe.SummaryEntries(), Counters: counters(qe.Stats())}
			for _, phi := range []float64{0.25, 0.5, 0.75} {
				quant.Qs = append(quant.Qs, qe.Query(phi))
			}
			return freq, quant
		}
		sf, sq := run()
		af, aq := run(gpustream.WithAsyncIngestion())
		pinIdentical(t, "parallel-frequency", sf, af)
		pinIdentical(t, "parallel-quantile", sq, aq)
	}
}

// TestAsyncSortStatsIdentical pins the GPU simulator's per-sort counters:
// the async executor hands windows to the same sorter instance in the same
// order, so the simulated draw calls, fragments, and transfers of the last
// window sort must match the synchronous run exactly.
func TestAsyncSortStatsIdentical(t *testing.T) {
	const n = 40_000
	data := asyncStream(n)
	run := func(opts ...pipeline.Option) gpusort.SortStats {
		srt := gpusort.NewSorter[float32]()
		est := frequency.NewEstimator[float32](0.002, srt, opts...)
		est.ProcessSlice(data)
		est.Flush()
		st := srt.LastStats()
		est.Close()
		return st
	}
	pinIdentical(t, "sort-stats", run(), run(pipeline.WithAsync()))
}

// TestAsyncOverlapReported asserts the staged executor's telemetry surfaces
// through the public Stats: a multi-window async run reports its stage
// depth via MaxInFlight and accrues Overlap (wall clock during which the
// sort and merge stages were busy simultaneously), while a synchronous run
// reports zero for all executor fields. On a single-CPU host the overlap
// assertion is advisory — with one P, accrual needs the scheduler to
// preempt mid-sort — so the deterministic nonzero-overlap pin lives in
// internal/pipeline's TestAsyncOverlapAccrues, which forces concurrency
// with sleeping stages.
func TestAsyncOverlapReported(t *testing.T) {
	const n = 200_000
	data := asyncStream(n)

	sync := gpustream.New(gpustream.BackendGPU).NewFrequencyEstimator(0.01)
	sync.ProcessSlice(data)
	sync.Flush()
	if st := sync.Stats(); st.Overlap != 0 || st.Stall != 0 || st.MaxInFlight != 0 {
		t.Fatalf("sync run reported staged-executor stats: %+v", st)
	}
	sync.Close()

	est := gpustream.New(gpustream.BackendGPU).NewFrequencyEstimator(0.01, gpustream.WithAsyncIngestion())
	est.ProcessSlice(data)
	est.Flush()
	st := est.Stats()
	est.Close()
	if st.Windows < 2 {
		t.Fatalf("want a multi-window run, got %d windows", st.Windows)
	}
	if st.MaxInFlight < 1 {
		t.Fatalf("async run reported MaxInFlight=%d, want >= 1", st.MaxInFlight)
	}
	if st.Overlap <= 0 {
		if runtime.GOMAXPROCS(0) > 1 {
			t.Fatalf("async run reported no overlap with %d Ps: %+v", runtime.GOMAXPROCS(0), st)
		}
		t.Logf("no overlap accrued on a single-P host (preemption-dependent): %+v", st)
	}
}
