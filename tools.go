package gpustream

// Supporting toolkit re-exports: streaming histograms, external sorting and
// trace I/O, so downstream users need only the root package.

import (
	"io"

	"gpustream/internal/extsort"
	"gpustream/internal/histogram"
	"gpustream/internal/stream"
)

// Re-exported toolkit types.
type (
	// StreamingHistogram maintains an approximate equi-depth histogram
	// over a stream (the dynamic histograms of Section 3.2).
	StreamingHistogram[T Value] = histogram.StreamingEquiDepth[T]
	// HistogramBucket is one range of a StreamingHistogram.
	HistogramBucket[T Value] = histogram.Bucket[T]
	// ExternalSortConfig controls a bounded-memory external sort.
	ExternalSortConfig = extsort.Config
	// ExternalSortStats reports external-sort work.
	ExternalSortStats = extsort.Stats
	// Source is a pull-based stream of values.
	Source[T Value] = stream.Source[T]
)

// NewStreamingHistogram returns a k-bucket approximate equi-depth histogram
// with boundary rank error eps, backed by this engine's sorter.
func (e *Engine[T]) NewStreamingHistogram(k int, eps float64) *StreamingHistogram[T] {
	return histogram.NewStreamingEquiDepth(k, eps, e.newBackendSorter())
}

// ExternalSort sorts the float32 values of src with bounded memory — runs
// formed on this engine's backend, spilled to disk, k-way merged — writing
// the ascending result to out in trace format (the trace format is float32,
// whatever the engine's element type).
func (e *Engine[T]) ExternalSort(src Source[float32], out io.Writer, cfg ExternalSortConfig) (ExternalSortStats, error) {
	if cfg.Sorter == nil {
		cfg.Sorter = newBackendSorter[float32](e.backend)
	}
	return extsort.Sort(src, out, cfg)
}

// WriteTrace records data to w in the library's binary trace format.
func WriteTrace(w io.Writer, data []float32) error { return stream.WriteTrace(w, data) }

// ReadTrace loads a whole trace from r.
func ReadTrace(r io.Reader) ([]float32, error) { return stream.ReadTrace(r) }

// NewSliceSource adapts an in-memory slice to a Source.
func NewSliceSource[T Value](data []T) Source[T] { return stream.NewSliceSource(data) }
