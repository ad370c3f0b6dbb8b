package cpusort

import (
	"math"

	"gpustream/internal/sorter"
)

// The key-radix window sort: every value the stack sorts is a fixed-width
// 32- or 64-bit number, and for fixed-width keys an LSD byte radix sort does
// O(n) work where quicksort does O(n log n) unpredictable branches. One Sort
// is: encode the window to order-preserving unsigned keys (bit flips for
// floats, a sign-bit flip for signed integers, identity for unsigned — the
// transform of sorter.OrderedKey), histogram every digit in one read pass,
// scatter eight bits at a time between two key buffers skipping any digit
// all keys share, and decode back into the caller's slice.
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
	// rotating inputs; DESIGN.md §18 has the table.
	RadixMinN = 96

	// StackKeys is the largest window whose key buffers live in the sorting
	// goroutine's stack frame, so a sorter that only ever sees windows this
	// size retains nothing on the heap. stackKeysSmall is a second tier so
	// the default 1000-value frequency window does not clear the full frame.
	StackKeys      = 4096
	stackKeysSmall = 1024
)

// Radix is the kernel with the one piece of state it needs: the key buffers
// for windows above StackKeys, sized to the largest window seen. The zero
// value is ready to use; an instance is not safe for concurrent Sorts.
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

// Retained reports the bytes of key buffer the instance holds: 0 until a
// window above StackKeys arrives.
func (r *Radix[T]) Retained() int { return 4*cap(r.k32) + 8*cap(r.k64) }

// radix is Sort above the cutoff (BenchmarkWindowSort calls it below the
// cutoff too, which is how the cutoff was set).
func (r *Radix[T]) radix(data []T) int {
	if sorter.Width[T]() == 8 {
		return tiered(data, &r.k64)
	}
	return tiered(data, &r.k32)
}

// tiered picks where the two key buffers live: one of two stack frames, or
// *held grown to the largest window seen.
func tiered[T sorter.Value, K uint32 | uint64](data []T, held *[]K) int {
	n := len(data)
	switch {
	case n <= stackKeysSmall:
		return onSmallStack[T, K](data)
	case n <= StackKeys:
		return onStack[T, K](data)
	}
	if cap(*held) < 2*n {
		*held = make([]K, 2*n)
	}
	return sortKeys(data, (*held)[:n], (*held)[n:2*n])
}

// Each stack tier is its own frame (hence noinline), so that a 1000-value
// float32 window clears 8 KB of keys, not the 64 KB a 4096-value uint64 one
// needs.

//go:noinline
func onSmallStack[T sorter.Value, K uint32 | uint64](data []T) int {
	var a, b [stackKeysSmall]K
	return sortKeys(data, a[:len(data)], b[:len(data)])
}

//go:noinline
func onStack[T sorter.Value, K uint32 | uint64](data []T) int {
	var a, b [StackKeys]K
	return sortKeys(data, a[:len(data)], b[:len(data)])
}

// sortKeys is the kernel: encode, lsd, decode. K is T's key width. The codec
// calls inline and fold to T's one transform (DESIGN.md §25), so each loop
// body is a load, a shift, a mask, an xor and a store, whichever package
// instantiates it.
func sortKeys[T sorter.Value, K uint32 | uint64](data []T, keys, tmp []K) int {
	for i, v := range data {
		keys[i] = K(sorter.OrderedKey(v))
	}
	out, passes := lsd(keys, tmp)
	for i, k := range out {
		data[i] = sorter.FromOrderedKey[T](uint64(k))
	}
	return passes
}

// lsd sorts keys byte by byte, least significant first, ping-ponging between
// keys and tmp, and returns whichever holds the result.
func lsd[K uint32 | uint64](keys, tmp []K) ([]K, int) {
	var counts [8][256]uint32
	digits := 4
	if uint64(^K(0))>>32 != 0 { // K is uint64
		digits = 8
	}
	for _, k := range keys {
		counts[0][uint8(k)]++
		counts[1][uint8(k>>8)]++
		counts[2][uint8(k>>16)]++
		counts[3][uint8(k>>24)]++
		if digits == 8 {
			h := uint32(uint64(k) >> 32)
			counts[4][uint8(h)]++
			counts[5][uint8(h>>8)]++
			counts[6][uint8(h>>16)]++
			counts[7][uint8(h>>24)]++
		}
	}
	n, passes := uint32(len(keys)), 0
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := uint(8 * d)
		if c[uint8(keys[0]>>shift)] == n {
			continue // every key shares this digit
		}
		sum := uint32(0)
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, k := range keys {
			b := uint8(k >> shift)
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
		passes++
	}
	return keys, passes
}
