package quantile

import (
	"fmt"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/samplesort"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

var benchData = stream.Uniform(1<<16, 1)

func BenchmarkWindowedEstimator(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		e := NewEstimator(0.001, int64(len(benchData)), cpusort.QuicksortSorter[float32]{})
		e.ProcessSlice(benchData)
		_ = e.Query(0.5)
	}
}

func BenchmarkGKSingleElement(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		g := summary.NewGK[float32](0.001)
		for _, v := range benchData {
			g.Insert(v)
		}
		_ = g.Query(0.5)
	}
}

// libQuantZipf returns estimators holding the benchmark's lib-quant-zipf
// stream (eps 1e-3, 2^22 zipf values, seed 1, the sample-sort backend)
// after each of the given eighths of it, flushed after every eighth, as
// its queries find them.
func libQuantZipf(tb testing.TB, eighths ...int) []*Estimator[float32] {
	return libQuantZipfOf[float32](tb, eighths...)
}

// libQuantZipfOf is libQuantZipf with the stream's values of type T.
func libQuantZipfOf[T sorter.Value](tb testing.TB, eighths ...int) []*Estimator[T] {
	const n = 1 << 22
	data := stream.ZipfOf[T](n, 1.1, n/100+10, 1)
	var es []*Estimator[T]
	for _, q := range eighths {
		e := NewEstimator(0.001, 0, samplesort.NewSorter[T]())
		for i := range q {
			if err := e.ProcessSlice(data[i*n/8 : (i+1)*n/8]); err != nil {
				tb.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
		es = append(es, e)
	}
	return es
}

// viewParts reports how many parts e's next view merges and how many
// entries they hold.
func viewParts(e *Estimator[float32]) (parts, entries int) {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.BarrierLocked()
	ps, _ := e.viewPartsLocked(e.core.BufferedLocked())
	for _, p := range ps {
		entries += p.Size()
	}
	return len(ps), entries
}

// BenchmarkViewBuild times an uncached Snapshot of the lib-quant-zipf
// stream after 1, 5 and 7 eighths of it, where the view merges 2, 4 and 6
// parts; ns/entry is per entry of the parts.
func BenchmarkViewBuild(b *testing.B) {
	for _, e := range libQuantZipf(b, 1, 5, 7) {
		parts, entries := viewParts(e)
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dropView(e)
				e.Snapshot()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/1e3, "µs/op")
			b.ReportMetric(ns/float64(entries), "ns/entry")
		})
	}
}
