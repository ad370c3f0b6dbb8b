package gpustream

import (
	"runtime"
	"testing"

	"gpustream/internal/sorter"
)

// TestSpecBufferMatchesBuiltWindow pins Validate's buffer bound to what
// construction allocates: for every family and shard count, the per-shard
// buffer a spec is counted at is the sort window (or pane) the built
// estimator actually runs, and for the quantile families as much again for
// the sorted window a quantile estimator holds; a serial one is fed one
// window to show that held window is retained. GOMAXPROCS is pinned so
// "shards":0 and "auto" build a known count.
func TestSpecBufferMatchesBuiltWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	families := []Family{
		FamilyFrequency, FamilyQuantile, FamilySlidingFrequency, FamilySlidingQuantile,
		FamilyParallelFrequency, FamilyParallelQuantile, FamilyFrugal,
	}
	checked := 0
	for _, f := range families {
		for _, shards := range []ShardCount{1, 3, 0, ShardsAuto} {
			for _, window := range []int{0, 3000} {
				spec := Spec{Family: f, Shards: shards, Window: window, Backend: BackendCPU}
				if f.needsEps() {
					spec.Eps = 0.001
				}
				if f.Sliding() {
					spec.Window = 20_000 + window
				}
				if spec.Validate() != nil {
					continue // shards or a window on a family that takes none
				}
				est, err := New(BackendCPU).NewFromSpec(spec)
				if err != nil {
					t.Fatalf("NewFromSpec(%+v): %v", spec, err)
				}
				built := 0
				if k, ok := est.(interface {
					Knobs() (sorter.Sorter[float32], int)
				}); ok {
					_, built = k.Knobs()
				}
				held := 0
				if f == FamilyQuantile || f == FamilyParallelQuantile {
					held = built
				}
				if got := spec.buffer(); got != float64(built+held) {
					t.Errorf("%v shards=%v window=%d: Validate counts %g values per shard, the estimator buffers %d and holds %d",
						f, shards, window, got, built, held)
				}
				if f == FamilyQuantile {
					if err := est.ProcessSlice(make([]float32, built)); err != nil {
						t.Fatal(err)
					}
					if got := est.(*QuantileEstimator[float32]).SummaryEntries(); got != held {
						t.Errorf("window=%d: %d values retained after one window, want the %d held", window, got, held)
					}
				}
				est.Close()
				checked++
			}
		}
	}
	if checked != 25 {
		t.Fatalf("checked %d specs, want 25", checked)
	}
}
