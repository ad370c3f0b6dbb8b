package gpustream_test

import (
	"runtime"
	"testing"

	"gpustream"
	"gpustream/internal/frequency"
	"gpustream/internal/gpusort"
	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
)

func asyncStream(n int) []float32 {
	return stream.Zipf(n, 1.2, n/50+10, 123)
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
	if sync, async := run(), run(pipeline.WithAsync()); sync != async {
		t.Fatalf("async sort stats %+v, sync %+v", async, sync)
	}
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
