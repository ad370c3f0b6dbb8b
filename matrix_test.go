package gpustream

// The acceptance matrix: every estimator family, on every backend, across
// distributions and epsilon values, checked against exact ground truth.
// This is the library's broadest single guarantee check; cmd/validate is
// its runnable, report-producing sibling.

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

func matrixDistributions(n int) map[string][]float32 {
	return map[string][]float32{
		"uniform": stream.Uniform(n, 1),
		"zipf":    stream.Zipf(n, 1.2, n/100+5, 2),
		"sorted":  stream.Sorted(n),
		"bursty":  stream.Bursty(n, n/50+5, n/100+1, 0.01, 3),
	}
}

func TestAcceptanceMatrix(t *testing.T) {
	const n = 20000
	backends := []Backend{BackendGPU, BackendCPU, BackendCPUParallel, BackendSampleSort}
	epsilons := []float64{0.02, 0.005}

	for name, data := range matrixDistributions(n) {
		ref := append([]float32(nil), data...)
		cpusort.Quicksort(ref)
		exact := map[float32]int64{}
		for _, v := range data {
			exact[v]++
		}

		for _, backend := range backends {
			for _, eps := range epsilons {
				t.Run(name+"/"+backend.String(), func(t *testing.T) {
					eng := New(backend)

					// Frequency: undercount within eps*N, never over.
					fe := eng.NewFrequencyEstimator(eps)
					fe.ProcessSlice(data)
					for v, truth := range exact {
						got := fe.Estimate(v)
						if got > truth || float64(truth-got) > eps*n+1e-9 {
							t.Fatalf("eps=%v frequency(%v) = %d, true %d", eps, v, got, truth)
						}
					}

					// Quantile: rank error within eps*N at a probe grid.
					qe := eng.NewQuantileEstimator(eps, n)
					qe.ProcessSlice(data)
					for p := 0; p <= 10; p++ {
						phi := float64(p) / 10
						r := int(math.Ceil(phi * n))
						if r < 1 {
							r = 1
						}
						got := qe.Query(phi)
						lo := sort.Search(len(ref), func(i int) bool { return ref[i] >= got }) + 1
						hi := sort.Search(len(ref), func(i int) bool { return ref[i] > got })
						var d int
						switch {
						case r < lo:
							d = lo - r
						case r > hi:
							d = r - hi
						}
						if float64(d) > eps*n+1 {
							t.Fatalf("eps=%v phi=%v rank error %d", eps, phi, d)
						}
					}
				})
			}
		}
	}
}

func TestAcceptanceMatrixSliding(t *testing.T) {
	const n, w = 20000, 4000
	const eps = 0.01
	for name, data := range matrixDistributions(n) {
		for _, backend := range []Backend{BackendGPU, BackendCPU, BackendSampleSort} {
			t.Run(name+"/"+backend.String(), func(t *testing.T) {
				eng := New(backend)
				sf := eng.NewSlidingFrequency(eps, w)
				sq := eng.NewSlidingQuantile(eps, w)
				sf.ProcessSlice(data)
				sq.ProcessSlice(data)

				win := append([]float32(nil), data[n-w:]...)
				exact := map[float32]int64{}
				for _, v := range win {
					exact[v]++
				}
				for v, truth := range exact {
					if got := sf.Estimate(v); math.Abs(float64(got-truth)) > eps*w+1e-9 {
						t.Fatalf("sliding frequency(%v) = %d, true %d", v, got, truth)
					}
				}
				cpusort.Quicksort(win)
				med := sq.Query(0.5)
				r := w / 2
				lo := sort.Search(len(win), func(i int) bool { return win[i] >= med }) + 1
				hi := sort.Search(len(win), func(i int) bool { return win[i] > med })
				var d int
				switch {
				case r < lo:
					d = lo - r
				case r > hi:
					d = r - hi
				}
				if float64(d) > eps*w+1 {
					t.Fatalf("sliding median rank error %d", d)
				}
			})
		}
	}
}

// typedDistributions builds the uint64 and float64 analogs of the float32
// acceptance distributions. The uint64 streams deliberately occupy the high
// bits (flow keys, nanosecond timestamps) so values are far outside any
// float's exact-integer range; the float64 streams exercise the wide
// mantissa.
func typedDistributionsU64(n int) map[string][]uint64 {
	zipf := stream.ZipfOf[uint64](n, 1.2, n/100+5, 21)
	for i, v := range zipf {
		zipf[i] = v<<40 | 0xF00D // hot items live in the high 24 bits
	}
	return map[string][]uint64{
		"uniform-full-width": stream.UniformU64(n, 20),
		"zipf-high-bits":     zipf,
	}
}

func typedDistributionsF64(n int) map[string][]float64 {
	return map[string][]float64{
		"uniform": stream.UniformOf[float64](n, 22),
		"zipf":    stream.ZipfOf[float64](n, 1.2, n/100+5, 23),
	}
}

// rankError reports how far v lies from rank r in the sorted reference.
func rankError[T Value](ref []T, v T, r int) int {
	lo := sort.Search(len(ref), func(i int) bool { return ref[i] >= v }) + 1
	hi := sort.Search(len(ref), func(i int) bool { return ref[i] > v })
	switch {
	case r < lo:
		return lo - r
	case r > hi:
		return r - hi
	}
	return 0
}

// typedMatrixCase runs every estimator family over one typed stream on one
// backend and checks each family's eps guarantee against exact answers
// computed on the typed data.
func typedMatrixCase[T Value](t *testing.T, data []T, backend Backend, eps float64) {
	n := len(data)
	w := n / 5
	ref := append([]T(nil), data...)
	cpusort.Quicksort(ref)
	exact := map[T]int64{}
	for _, v := range data {
		exact[v]++
	}
	winExact := map[T]int64{}
	for _, v := range data[n-w:] {
		winExact[v]++
	}
	winRef := append([]T(nil), data[n-w:]...)
	cpusort.Quicksort(winRef)

	eng := NewOf[T](backend)

	fe := eng.NewFrequencyEstimator(eps)
	fe.ProcessSlice(data)
	pf := eng.NewParallelFrequencyEstimator(eps, 3, WithBatchSize(1<<12))
	pf.ProcessSlice(data)
	pf.Close()
	for v, truth := range exact {
		if got := fe.Estimate(v); got > truth || float64(truth-got) > eps*float64(n)+1e-9 {
			t.Fatalf("frequency(%v) = %d, true %d", v, got, truth)
		}
		if got := pf.Estimate(v); got > truth || float64(truth-got) > eps*float64(n)+1e-9 {
			t.Fatalf("parallel frequency(%v) = %d, true %d", v, got, truth)
		}
	}

	qe := eng.NewQuantileEstimator(eps, int64(n))
	qe.ProcessSlice(data)
	pq := eng.NewParallelQuantileEstimator(eps, int64(n), 3, WithBatchSize(1<<12))
	pq.ProcessSlice(data)
	pq.Close()
	for p := 0; p <= 10; p++ {
		phi := float64(p) / 10
		r := int(math.Ceil(phi * float64(n)))
		if r < 1 {
			r = 1
		}
		if d := rankError(ref, qe.Query(phi), r); float64(d) > eps*float64(n)+1 {
			t.Fatalf("phi=%v rank error %d", phi, d)
		}
		if d := rankError(ref, pq.Query(phi), r); float64(d) > eps*float64(n)+1 {
			t.Fatalf("parallel phi=%v rank error %d", phi, d)
		}
	}

	sf := eng.NewSlidingFrequency(eps, w)
	sf.ProcessSlice(data)
	for v, truth := range winExact {
		if got := sf.Estimate(v); math.Abs(float64(got-truth)) > eps*float64(w)+1e-9 {
			t.Fatalf("sliding frequency(%v) = %d, true %d", v, got, truth)
		}
	}

	sq := eng.NewSlidingQuantile(eps, w)
	sq.ProcessSlice(data)
	if d := rankError(winRef, sq.Query(0.5), w/2); float64(d) > eps*float64(w)+1 {
		t.Fatalf("sliding median rank error %d", d)
	}
}

// TestAcceptanceMatrixTypedUint64 and TestAcceptanceMatrixTypedFloat64 are
// the full family matrix at the integer and wide-float instantiations: the
// same guarantees the float32 matrix pins, checked on values no float32
// stack could represent.
func TestAcceptanceMatrixTypedUint64(t *testing.T) {
	const n = 20000
	for name, data := range typedDistributionsU64(n) {
		for _, backend := range []Backend{BackendGPU, BackendCPU, BackendSampleSort} {
			t.Run(name+"/"+backend.String(), func(t *testing.T) {
				typedMatrixCase(t, data, backend, 0.01)
			})
		}
	}
}

func TestAcceptanceMatrixTypedFloat64(t *testing.T) {
	const n = 20000
	for name, data := range typedDistributionsF64(n) {
		for _, backend := range []Backend{BackendGPU, BackendCPU, BackendSampleSort} {
			t.Run(name+"/"+backend.String(), func(t *testing.T) {
				typedMatrixCase(t, data, backend, 0.01)
			})
		}
	}
}

// k1BitIdenticalCase pins the acceptance criterion that a K=1 sharded
// estimator is bit-identical to its serial sibling at type T on the given
// backend: same quantile answers at every probe, same frequency estimates
// and heavy-hitter lists.
func k1BitIdenticalCase[T Value](t *testing.T, backend Backend, data []T) {
	n := int64(len(data))
	const eps = 0.005
	eng := NewOf[T](backend)

	sq := eng.NewQuantileEstimator(eps, n)
	sq.ProcessSlice(data)
	pq := eng.NewParallelQuantileEstimator(eps, n, 1, WithBatchSize(1024))
	pq.ProcessSlice(data)
	pq.Close()
	for p := 0; p <= 20; p++ {
		phi := float64(p) / 20
		if s, par := sq.Query(phi), pq.Query(phi); s != par {
			t.Fatalf("phi=%v: serial %v != K=1 sharded %v", phi, s, par)
		}
	}

	sf := eng.NewFrequencyEstimator(eps)
	sf.ProcessSlice(data)
	pf := eng.NewParallelFrequencyEstimator(eps, 1, WithBatchSize(1024))
	pf.ProcessSlice(data)
	pf.Close()
	if s, par := sf.Query(4*eps), pf.Query(4*eps); !reflect.DeepEqual(s, par) {
		t.Fatalf("heavy hitters diverge:\n  serial:  %v\n  sharded: %v", s, par)
	}
	for _, v := range data[:200] {
		if s, par := sf.Estimate(v), pf.Estimate(v); s != par {
			t.Fatalf("Estimate(%v): serial %d != K=1 sharded %d", v, s, par)
		}
	}
}

func TestShardK1BitIdenticalAcrossTypes(t *testing.T) {
	const n = 30000
	t.Run("float32", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendCPU, stream.Zipf(n, 1.2, 300, 31))
	})
	t.Run("float32-samplesort", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendSampleSort, stream.Zipf(n, 1.2, 300, 31))
	})
	t.Run("float64", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendCPU, stream.ZipfOf[float64](n, 1.2, 300, 32))
	})
	t.Run("uint32", func(t *testing.T) {
		k1BitIdenticalCase(t, BackendCPU, stream.ZipfOf[uint32](n, 1.2, 300, 33))
	})
	t.Run("uint64", func(t *testing.T) {
		data := stream.ZipfOf[uint64](n, 1.2, 300, 34)
		for i, v := range data {
			data[i] = v << 40 // exercise the high bits
		}
		k1BitIdenticalCase(t, BackendSampleSort, data)
	})
	t.Run("int64", func(t *testing.T) {
		data := stream.ZipfOf[int64](n, 1.2, 300, 35)
		for i, v := range data {
			if i%2 == 1 {
				data[i] = -v // signed streams cross zero
			}
		}
		k1BitIdenticalCase(t, BackendCPU, data)
	})
}
