// Package sorter defines the interface between the stream-mining algorithms
// and the sorting backends, and the ordered-value constraint the whole stack
// is generic over. Sorting dominates the runtime of the paper's summary
// construction (70-95% on the CPU, Section 3.2), so the estimators are
// parameterized over a Sorter: the GPU-simulated PBSN sorter, the GPU
// bitonic baseline, or the CPU quicksorts.
//
// The paper's algorithms are comparator-based — PBSN, lossy counting, GK
// summaries and exponential-histogram windows only ever compare values — so
// every layer is generic over Value, the six ordered numeric types a stream
// can carry. float32 remains the paper-faithful default (the 2004 hardware
// blended float32 render targets); the other instantiations open integer
// and double-precision workloads on the same substrate.
package sorter

import (
	"math"
	"reflect"
)

// Value is the ordered-numeric constraint every layer of the stack is
// generic over: stream values, sorter elements, summary entries, histogram
// bins and query results all carry one of these types. All six types are
// totally ordered by < (modulo NaN for the float instantiations, which the
// estimators exclude the same way the paper's float32 pipeline does).
//
// Where < leaves the order open, the backends differ. The comparison sorts
// place -0 and +0 in input-dependent order and NaNs arbitrarily. The
// key-radix "samplesort" backend orders by OrderedKey, which is total: -0
// before +0, NaNs with the sign bit set before -Inf, all other NaNs after
// +Inf — from cpusort.RadixMinN values up (twice that for 64-bit types);
// shorter slices take the comparison path.
type Value interface {
	~float32 | ~float64 | ~uint32 | ~uint64 | ~int32 | ~int64
}

// Sorter sorts a slice of T values in ascending order, in place.
type Sorter[T Value] interface {
	// Sort orders data ascending in place.
	Sort(data []T)
	// Name identifies the backend in benchmark output.
	Name() string
}

// Func adapts a plain function to the Sorter interface.
type Func[T Value] struct {
	SortFunc func([]T)
	Label    string
}

// Sort implements Sorter.
func (f Func[T]) Sort(data []T) { f.SortFunc(data) }

// Name implements Sorter.
func (f Func[T]) Name() string { return f.Label }

// MaxValue returns the largest representable T: +Inf for the float
// instantiations, the maximum integer otherwise. It is the generic analog of
// the paper's +Inf padding — a sentinel that sorts to the end of every
// channel.
func MaxValue[T Value]() T {
	var z T
	v := reflect.ValueOf(&z).Elem()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Inf(1))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64) // SetUint truncates to the field width
	case reflect.Int32:
		v.SetInt(math.MaxInt32)
	case reflect.Int64:
		v.SetInt(math.MaxInt64)
	}
	return z
}

// MinValue returns the smallest representable T: -Inf for the float
// instantiations, the minimum integer otherwise.
func MinValue[T Value]() T {
	var z T
	v := reflect.ValueOf(&z).Elem()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Inf(-1))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(0)
	case reflect.Int32:
		v.SetInt(math.MinInt32)
	case reflect.Int64:
		v.SetInt(math.MinInt64)
	}
	return z
}

// KeyBits reports the width in bits of T's order-preserving integer key
// space: 32 for float32/uint32/int32, 64 for the rest.
func KeyBits[T Value]() int {
	var z T
	switch reflect.ValueOf(&z).Elem().Kind() {
	case reflect.Float32, reflect.Uint32, reflect.Int32:
		return 32
	}
	return 64
}

// OrderedKey maps v to a uint64 key such that a < b iff
// OrderedKey(a) < OrderedKey(b): the classic bit flips for floats (flip all
// bits of negatives, the sign bit of non-negatives), a sign-bit flip for
// signed integers, identity for unsigned. Radix sorting and the GPU
// selection's key-space binary search build on it.
func OrderedKey[T Value](v T) uint64 {
	rv := reflect.ValueOf(&v).Elem()
	switch rv.Kind() {
	case reflect.Float32:
		b := math.Float32bits(float32(rv.Float()))
		if b&0x80000000 != 0 {
			b = ^b
		} else {
			b |= 0x80000000
		}
		return uint64(b)
	case reflect.Float64:
		b := math.Float64bits(rv.Float())
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		return b
	case reflect.Uint32, reflect.Uint64:
		return rv.Uint()
	case reflect.Int32:
		return uint64(uint32(int32(rv.Int())) ^ 0x80000000)
	default: // Int64
		return uint64(rv.Int()) ^ (1 << 63)
	}
}

// FromOrderedKey inverts OrderedKey.
func FromOrderedKey[T Value](k uint64) T {
	var z T
	rv := reflect.ValueOf(&z).Elem()
	switch rv.Kind() {
	case reflect.Float32:
		b := uint32(k)
		if b&0x80000000 != 0 {
			b &^= 0x80000000
		} else {
			b = ^b
		}
		rv.SetFloat(float64(math.Float32frombits(b)))
	case reflect.Float64:
		if k&(1<<63) != 0 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		rv.SetFloat(math.Float64frombits(k))
	case reflect.Uint32, reflect.Uint64:
		rv.SetUint(k)
	case reflect.Int32:
		rv.SetInt(int64(int32(uint32(k) ^ 0x80000000)))
	default: // Int64
		rv.SetInt(int64(k ^ (1 << 63)))
	}
	return z
}
