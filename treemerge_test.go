package gpustream_test

import (
	"fmt"
	"testing"

	"gpustream"
	"gpustream/internal/acceptance"
	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

// treeRoot runs one worker per part at eps, built by newEst on the CPU
// backend, marshals each worker's view and merges the blobs up a tree of
// height h — what distinct processes exchanging snapshot files do.
func treeRoot(t *testing.T, parts [][]float32, h int, seed uint64, newEst func(*gpustream.Engine[float32], []float32) gpustream.Estimator[float32]) gpustream.Snapshot[float32] {
	t.Helper()
	blobs := make([][]byte, 0, len(parts))
	for _, part := range parts {
		est := newEst(gpustream.New(gpustream.BackendCPU), part)
		if err := est.ProcessSlice(part); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		blob, err := gpustream.MarshalSnapshot(est.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		blobs = append(blobs, blob)
	}
	root, err := acceptance.TreeMerge[float32](blobs, h, seed)
	if err != nil {
		t.Fatalf("tree merge: %v", err)
	}
	return root
}

// checkRoot holds a merged root to the end-to-end eps bound over truth:
// its quantiles, or every frequency estimate and the heavy hitters at
// support.
func checkRoot(t *testing.T, root gpustream.Snapshot[float32], truth *oracle.Truth[float32], eps, support float64) {
	t.Helper()
	if root.Count() != truth.N() {
		t.Fatalf("merged Count = %d, want %d", root.Count(), truth.N())
	}
	if _, ok := root.Quantile(0.5); ok {
		if _, err := oracle.Quantiles(truth, root, []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}, eps); err != nil {
			t.Error(err)
		}
		return
	}
	_, err := oracle.Frequencies(truth, root, eps, false)
	if err == nil {
		hh, _ := root.HeavyHitters(support)
		err = oracle.Support(truth, hh, support)
	}
	if err != nil {
		t.Error(err)
	}
}

// TestTreeMergeEquivalence is the cross-process aggregation property: P
// ingest processes run at TreeEps(eps, h), marshal their snapshots, and an
// aggregation tree of height h merges the blobs. The root's answers must
// satisfy the end-to-end eps bound a serial estimator promises — for every
// tree shape, every process count, and every random partitioning.
func TestTreeMergeEquivalence(t *testing.T) {
	const (
		n   = 24000
		eps = 0.05
	)
	data := stream.ZipfOf[float32](n, 1.2, 400, 11)
	truth := oracle.New(data)

	for _, h := range []int{2, 3} {
		epsW := gpustream.TreeEps(eps, h)
		for _, p := range []int{4, 16} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("h=%d/P=%d/seed=%d", h, p, seed), func(t *testing.T) {
					parts := acceptance.Partition(data, p, seed)
					checkRoot(t, treeRoot(t, parts, h, seed, func(e *gpustream.Engine[float32], part []float32) gpustream.Estimator[float32] {
						return e.NewQuantileEstimator(epsW, int64(len(part))+1)
					}), truth, eps, 0)
					checkRoot(t, treeRoot(t, parts, h, seed, func(e *gpustream.Engine[float32], _ []float32) gpustream.Estimator[float32] {
						return e.NewFrequencyEstimator(epsW)
					}), truth, eps, 0.02)
				})
			}
		}
	}
}

// TestTreeMergeSlidingWindows extends the aggregation property to the
// sliding-window families: P processes each watch a window over their whole
// partition, and the merged root answers for the union window of
// W1+...+WP elements within the end-to-end eps budget.
func TestTreeMergeSlidingWindows(t *testing.T) {
	const (
		n   = 12000
		p   = 4
		eps = 0.05
	)
	epsW := gpustream.TreeEps(eps, 2)
	data := stream.ZipfOf[float32](n, 1.2, 300, 23)
	truth := oracle.New(data)
	parts := acceptance.Partition(data, p, 5)

	checkRoot(t, treeRoot(t, parts, 2, 0, func(e *gpustream.Engine[float32], part []float32) gpustream.Estimator[float32] {
		return e.NewSlidingFrequency(epsW, len(part))
	}), truth, eps, 0.02)
	checkRoot(t, treeRoot(t, parts, 2, 0, func(e *gpustream.Engine[float32], part []float32) gpustream.Estimator[float32] {
		return e.NewSlidingQuantile(epsW, len(part))
	}), truth, eps, 0)
}
