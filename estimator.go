package gpustream

// Estimator is the surface shared by all seven estimator families:
// FrequencyEstimator, QuantileEstimator, SlidingFrequency, SlidingQuantile,
// ParallelFrequencyEstimator, ParallelQuantileEstimator, and
// FrugalEstimator. Callers that do not care which sketch they are driving
// can program against it alone.
//
// The lifecycle is error-based: Process and ProcessSlice return an error
// wrapping ErrClosed once Close has been called; Flush and Close are
// idempotent and report nil on the serial families (the parallel families'
// CloseContext can fail on context expiry). Every method is safe under
// concurrent use — one writer and any number of query/snapshot goroutines
// is the intended pattern — and Snapshot returns an immutable view that
// keeps answering after the stream moves on or the estimator closes.
type Estimator[T Value] interface {
	// Process ingests one stream value.
	Process(v T) error
	// ProcessSlice ingests a batch; the caller may reuse the slice
	// immediately.
	ProcessSlice(data []T) error
	// Flush forces buffered values into the summary state.
	Flush() error
	// Close flushes, releases pooled buffers, and stops ingestion. The
	// estimator remains queryable.
	Close() error
	// Count reports the stream length ingested so far.
	Count() int64
	// Stats reports the unified per-stage pipeline telemetry.
	Stats() Stats
	// Snapshot returns an immutable point-in-time queryable view.
	Snapshot() Snapshot[T]
}

// assertEstimators pins, at compile time, that every estimator family
// satisfies Estimator at element type T. Most of the surface reaches the
// families by promotion — the four serial ones embed the pipeline's ingest
// shell, the two parallel ones the sharded core — so this is also what
// keeps an embedding change from silently dropping a method.
func assertEstimators[T Value]() {
	var (
		_ Estimator[T] = (*FrequencyEstimator[T])(nil)
		_ Estimator[T] = (*QuantileEstimator[T])(nil)
		_ Estimator[T] = (*SlidingFrequency[T])(nil)
		_ Estimator[T] = (*SlidingQuantile[T])(nil)
		_ Estimator[T] = (*ParallelFrequencyEstimator[T])(nil)
		_ Estimator[T] = (*ParallelQuantileEstimator[T])(nil)
		_ Estimator[T] = (*FrugalEstimator[T])(nil)
	)
}

// Compile-time instantiation of every family at the floating-point and
// integer representatives of the Value constraint.
var (
	_ = assertEstimators[float32]
	_ = assertEstimators[float64]
	_ = assertEstimators[uint32]
	_ = assertEstimators[uint64]
	_ = assertEstimators[int32]
	_ = assertEstimators[int64]
)
