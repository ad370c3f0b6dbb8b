// Package stream provides data-stream sources and synthetic workload
// generators used throughout the library.
//
// The paper evaluates on streams of "more than 100 million values" produced
// by a "random database". Since the original traces are not available, this
// package generates deterministic synthetic equivalents: uniform, Zipfian,
// Gaussian, sorted, nearly-sorted and bursty value streams. All generators
// are seeded so experiments are reproducible run to run.
//
// Sources and generators are generic over the stack's ordered value types;
// the unsuffixed generator names are float32 conveniences (the paper's
// native stream type) over the *Of forms.
package stream

import (
	"math"

	"gpustream/internal/sorter"
)

// Source is a pull-based stream of values. Next reports the next element
// and whether one was available; once it returns false the stream is
// exhausted and further calls keep returning false.
type Source[T sorter.Value] interface {
	Next() (T, bool)
}

// SliceSource adapts an in-memory slice to a Source.
type SliceSource[T sorter.Value] struct {
	data []T
	pos  int
}

// NewSliceSource returns a Source that yields the elements of data in order.
// The slice is not copied.
func NewSliceSource[T sorter.Value](data []T) *SliceSource[T] {
	return &SliceSource[T]{data: data}
}

// Next implements Source.
func (s *SliceSource[T]) Next() (T, bool) {
	if s.pos >= len(s.data) {
		var z T
		return z, false
	}
	v := s.data[s.pos]
	s.pos++
	return v, true
}

// Remaining reports how many elements have not yet been consumed.
func (s *SliceSource[T]) Remaining() int { return len(s.data) - s.pos }

// Collect drains up to max elements from src into a new slice. A negative max
// drains the entire source.
func Collect[T sorter.Value](src Source[T], max int) []T {
	var out []T
	for max < 0 || len(out) < max {
		v, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// RNG is a small, fast, deterministic xorshift64* generator. It is used
// instead of math/rand so that streams are bit-reproducible across Go
// versions (math/rand's algorithm is unspecified across releases).
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed. A zero seed is replaced with a
// fixed non-zero constant, as xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a pseudo-random number in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a pseudo-random number in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stream: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// UniformOf generates n values by converting uniform draws from [0, 1) to T.
// Meaningful for the floating-point instantiations; integer T truncates
// every draw to zero — use UniformIntsOf for discrete item streams.
func UniformOf[T sorter.Value](n int, seed uint64) []T {
	r := NewRNG(seed)
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.Float64())
	}
	return out
}

// Uniform generates n float32 values drawn uniformly from [0, 1).
func Uniform(n int, seed uint64) []float32 { return UniformOf[float32](n, seed) }

// UniformIntsOf generates n values drawn uniformly from {0, 1, ...,
// vocab-1}, stored as T item identifiers. This is the workload used for
// frequency-estimation experiments, where streams carry discrete items.
func UniformIntsOf[T sorter.Value](n, vocab int, seed uint64) []T {
	r := NewRNG(seed)
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.Intn(vocab))
	}
	return out
}

// UniformInts is UniformIntsOf at float32.
func UniformInts(n, vocab int, seed uint64) []float32 {
	return UniformIntsOf[float32](n, vocab, seed)
}

// UniformU64 generates n identifiers drawn uniformly from the full 64-bit
// key space — the timestamp/flow-key workload for the integer
// instantiations, with values far outside any float's exact-integer range.
func UniformU64(n int, seed uint64) []uint64 {
	r := NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// GaussianOf generates n values from a normal distribution with the given
// mean and standard deviation, converted to T (integer instantiations
// truncate toward zero).
func GaussianOf[T sorter.Value](n int, mean, stddev float64, seed uint64) []T {
	r := NewRNG(seed)
	out := make([]T, n)
	for i := range out {
		out[i] = T(mean + stddev*r.NormFloat64())
	}
	return out
}

// Gaussian is GaussianOf at float32.
func Gaussian(n int, mean, stddev float64, seed uint64) []float32 {
	return GaussianOf[float32](n, mean, stddev, seed)
}

// SortedOf generates n non-decreasing values (strictly increasing while i
// stays within T's exact-integer range), an adversarial input for naive
// quicksort pivoting and a best case for nearly-sorted-aware sorts.
func SortedOf[T sorter.Value](n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(i)
	}
	return out
}

// Sorted is SortedOf at float32.
func Sorted(n int) []float32 { return SortedOf[float32](n) }

// ReverseSortedOf generates n non-increasing values.
func ReverseSortedOf[T sorter.Value](n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(n - i)
	}
	return out
}

// ReverseSorted is ReverseSortedOf at float32.
func ReverseSorted(n int) []float32 { return ReverseSortedOf[float32](n) }

// NearlySortedOf generates an ascending sequence in which a fraction frac of
// randomly chosen pairs have been swapped.
func NearlySortedOf[T sorter.Value](n int, frac float64, seed uint64) []T {
	out := SortedOf[T](n)
	r := NewRNG(seed)
	swaps := int(frac * float64(n))
	for s := 0; s < swaps; s++ {
		i, j := r.Intn(n), r.Intn(n)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// NearlySorted is NearlySortedOf at float32.
func NearlySorted(n int, frac float64, seed uint64) []float32 {
	return NearlySortedOf[float32](n, frac, seed)
}

// ZipfOf generates n item identifiers from a Zipfian distribution with
// exponent s over a vocabulary of the given size. Identifier 0 is the most
// frequent. This is the canonical skewed workload for heavy-hitter queries:
// a small number of items dominate the stream, as in network-traffic and
// web logs.
func ZipfOf[T sorter.Value](n int, s float64, vocab int, seed uint64) []T {
	if vocab <= 0 {
		panic("stream: Zipf with non-positive vocabulary")
	}
	// Build the CDF once; inversion sampling afterwards is O(log vocab).
	cdf := make([]float64, vocab)
	sum := 0.0
	for k := 1; k <= vocab; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	r := NewRNG(seed)
	out := make([]T, n)
	for i := range out {
		u := r.Float64()
		lo, hi := 0, vocab-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = T(lo)
	}
	return out
}

// Zipf is ZipfOf at float32.
func Zipf(n int, s float64, vocab int, seed uint64) []float32 {
	return ZipfOf[float32](n, s, vocab, seed)
}

// BurstyOf generates a stream whose value distribution shifts between
// periods: long stretches of uniform background traffic interrupted by
// bursts during which a single "hot" item dominates. It models the irregular
// arrival patterns the paper cites as a motivation for faster stream
// processing.
func BurstyOf[T sorter.Value](n, vocab, burstLen int, burstProb float64, seed uint64) []T {
	r := NewRNG(seed)
	out := make([]T, n)
	i := 0
	for i < n {
		if r.Float64() < burstProb {
			hot := T(r.Intn(vocab))
			end := i + burstLen
			if end > n {
				end = n
			}
			for ; i < end; i++ {
				out[i] = hot
			}
			continue
		}
		out[i] = T(r.Intn(vocab))
		i++
	}
	return out
}

// Bursty is BurstyOf at float32.
func Bursty(n, vocab, burstLen int, burstProb float64, seed uint64) []float32 {
	return BurstyOf[float32](n, vocab, burstLen, burstProb, seed)
}
