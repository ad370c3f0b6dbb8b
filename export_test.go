package gpustream

import "gpustream/internal/frugal"

// Options only tests set. They are compiled into the package under test, so
// both the internal and the external test packages call them by these names.

// WithPinnedTuning installs a do-nothing tuner on every pipeline the
// constructor builds: the retune hook runs at every window boundary but never
// moves a knob, so answers are bit-identical to the same backend with no
// tuner at all. Under BackendAuto this pins the pipeline to its sample-sort
// starting point — the harness for the bit-identity tests.
func WithPinnedTuning() EstimatorOption {
	return func(c *estimatorConfig) { c.pinned = true }
}

// WithBatchSize overrides the parallel estimators' ingestion hand-off batch
// size (default ~64K values).
func WithBatchSize(n int) EstimatorOption {
	if n <= 0 {
		panic("gpustream: batch size must be positive")
	}
	return func(c *estimatorConfig) { c.batch = n }
}

// WithFrugalSeed seeds a FrugalEstimator's randomized rank gates; estimates
// are deterministic for a fixed seed and ingestion order.
func WithFrugalSeed(seed uint64) FrugalOption { return frugal.WithSeed(seed) }
