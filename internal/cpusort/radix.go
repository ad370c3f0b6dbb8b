package cpusort

import (
	"math"
	"unsafe"

	"gpustream/internal/sorter"
)

// The key-radix window sort: every value the stack sorts is a fixed-width
// 32- or 64-bit number, and for fixed-width keys an LSD byte radix sort does
// O(n) work where quicksort does O(n log n) unpredictable branches. One Sort
// is: encode the window, in its own storage, to order-preserving unsigned
// keys (bit flips for floats, a sign-bit flip for signed integers, identity
// for unsigned — the transform of sorter.OrderedKey) while histogramming
// every digit, scatter eight bits at a time between the window and one
// scratch buffer skipping any digit all keys share, and decode back into
// the caller's slice.
//
// The key order is total where < is not: -0 sorts before +0, NaNs with the
// sign bit set before -Inf and the rest after +Inf. It holds from the
// comparison-sort cutoff up; shorter slices are ordered by < alone.

const (
	// RadixMinN is the length below which Radix.Sort is the comparison sort
	// for 32-bit keys; 64-bit keys, with twice the digits, switch at twice
	// the length. Clearing and prefix-summing a 256-entry table per digit
	// costs more than quicksort's whole run on a few dozen values (sliding
	// panes, query-time partial windows). Set from BenchmarkWindowSort's
	// rotating inputs (DESIGN.md §9).
	RadixMinN = 96

	// StackKeys is the largest window whose scratch buffer lives in the
	// sorting goroutine's stack frame, so a sorter that only ever sees
	// windows this size retains nothing on the heap. stackKeysSmall is a
	// second tier so the default 1000-value frequency window does not clear
	// the full frame.
	StackKeys      = 4096
	stackKeysSmall = 1024
)

// Radix is the kernel with the one piece of state it needs: the scratch
// buffer for windows above StackKeys, sized to the largest window seen. The
// zero value is ready to use; an instance is not safe for concurrent Sorts.
type Radix[T sorter.Value] struct {
	k32 []uint32
	k64 []uint64
}

// Sort orders data ascending in place and reports how many scatter passes
// ran: 0 below the cutoff (comparison sort) or when every key is equal, at
// most the key width in bytes. The count depends on the data — a digit all
// keys share is skipped.
func (r *Radix[T]) Sort(data []T) (passes int) {
	if n := len(data); n < r.minN() || uint64(n) > math.MaxUint32 { // counters are uint32
		Quicksort(data)
		return 0
	}
	return r.radix(data)
}

// minN is the comparison-sort cutoff for r's key width.
func (r *Radix[T]) minN() int { return sorter.Width[T]() / 4 * RadixMinN }

// Retained reports the bytes of scratch buffer the instance holds: 0 until
// a window above StackKeys arrives, then one key per value of the largest
// window seen.
func (r *Radix[T]) Retained() int { return 4*cap(r.k32) + 8*cap(r.k64) }

// radix is Sort above the cutoff (BenchmarkWindowSort calls it below the
// cutoff too, which is how the cutoff was set).
func (r *Radix[T]) radix(data []T) int {
	if sorter.Width[T]() == 8 {
		return tiered(data, &r.k64)
	}
	return tiered(data, &r.k32)
}

// tiered picks where the scratch buffer lives: one of two stack frames, or
// *held grown to the largest window seen.
func tiered[T sorter.Value, K uint32 | uint64](data []T, held *[]K) int {
	n := len(data)
	switch {
	case n <= stackKeysSmall:
		return onSmallStack[T, K](data)
	case n <= StackKeys:
		return onStack[T, K](data)
	}
	if cap(*held) < n {
		*held = make([]K, n)
	}
	return sortKeys(data, (*held)[:n])
}

// Each stack tier is its own frame (hence noinline), so that a 1000-value
// float32 window clears 4 KB of scratch, not the 32 KB a 4096-value uint64
// one needs.

//go:noinline
func onSmallStack[T sorter.Value, K uint32 | uint64](data []T) int {
	var tmp [stackKeysSmall]K
	return sortKeys(data, tmp[:len(data)])
}

//go:noinline
func onStack[T sorter.Value, K uint32 | uint64](data []T) int {
	var tmp [StackKeys]K
	return sortKeys(data, tmp[:len(data)])
}

// sortKeys is the kernel. It encodes each value to its key in data's own
// storage, counting every digit in the same loop; scatters one digit at a
// time between data and tmp; and decodes the result back into data — in
// place after an even number of passes, from tmp after an odd one. K is
// T's key width. The codec calls inline and fold to T's one transform
// (DESIGN.md §7), so the encode and decode loops cost a load, a shift, a
// mask, an xor and a store, whichever package instantiates them.
func sortKeys[T sorter.Value, K uint32 | uint64](data []T, tmp []K) int {
	if unsafe.Sizeof(T(0)) != unsafe.Sizeof(K(0)) { // folds: radix pairs T with its width
		panic("cpusort: key width differs from value width")
	}
	// A Value's whole representation is its bits (DESIGN.md §7), so its
	// storage holds a key of the same width.
	keys := unsafe.Slice((*K)(unsafe.Pointer(unsafe.SliceData(data))), len(data))
	var t digitCounts
	counts := &t.c
	wide := unsafe.Sizeof(K(0)) == 8
	for i, v := range data {
		k := K(sorter.OrderedKey(v))
		keys[i] = k
		counts[0][uint8(k)]++
		counts[1][uint8(k>>8)]++
		counts[2][uint8(k>>16)]++
		counts[3][uint8(k>>24)]++
		if wide {
			h := uint32(uint64(k) >> 32)
			counts[4][uint8(h)]++
			counts[5][uint8(h>>8)]++
			counts[6][uint8(h>>16)]++
			counts[7][uint8(h>>24)]++
		}
	}
	digits := 4
	if wide {
		digits = 8
	}
	src, dst := keys, tmp
	n, passes := uint32(len(keys)), 0
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := uint(8 * d)
		if c[uint8(src[0]>>shift)] == n {
			continue // every key shares this digit
		}
		sum := uint32(0)
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		scatter(src, dst, c, shift)
		src, dst = dst, src
		passes++
	}
	for i, k := range src { // keys after an even number of passes, tmp after an odd one
		data[i] = sorter.FromOrderedKey[T](uint64(k))
	}
	return passes
}

// digitCounts is the histogram of every key byte. The zero-width uint64
// aligns it to 8 bytes: zeroing a 4-byte aligned table with REP STOSQ cost
// as much as the rest of a 64-value sort.
type digitCounts struct {
	_ [0]uint64
	c [8][256]uint32
}

// scatter moves src into dst ordered by the digit at shift, c holding each
// digit's first position. It takes two keys a step and loads both counters
// before storing either, so a run of equal digits waits on one
// store-to-load forward per two keys, not per key; the second key's
// position is one past the first's when their digits match. Masking the
// shift to K's width drops the compiler's oversized-shift fix-up, and
// adding the match as arithmetic, where an if compiles to a CMOV, keeps
// the loop's values in registers (go1.24, amd64).
func scatter[K uint32 | uint64](src, dst []K, c *[256]uint32, shift uint) {
	shift &= 8*uint(unsafe.Sizeof(K(0))) - 1
	n := len(src)
	dst = dst[:n]
	for i := 0; i < n-1; i += 2 {
		k0, k1 := src[i], src[i+1]
		b0, b1 := uint8(k0>>shift), uint8(k1>>shift)
		p0, p1 := c[b0], c[b1]
		p1 += (uint32(b0^b1) - 1) >> 31 // 1 if b0 == b1, else 0
		dst[p0] = k0
		dst[p1] = k1
		c[b0] = p0 + 1
		c[b1] = p1 + 1
	}
	if n%2 != 0 {
		k := src[n-1]
		dst[c[uint8(k>>shift)]] = k
	}
}
