package sorter

import (
	"strconv"
	"unsafe"
)

// The value codec: every per-type fact about a Value — its kind, width, raw
// bits, order-preserving key, float exponent mask, wire tag and decimal
// parse — is said here and nowhere else. Each fact is an expression of T
// that the compiler folds to a constant in every instantiation: the width is
// unsafe.Sizeof, float-ness is T(1)/2 != 0, signedness is T(0)-1 < 0, and
// the raw bits are the value read as an unsigned integer of its width. So a
// codec call costs what the one-type code it replaces cost, with no reflect
// and no type switch, for the six types and any type defined over them.

// Kind is the interpretation of a Value's bits. The order of the constants
// is part of the wire format: see WireTag.
type Kind uint8

const (
	Float    Kind = iota // IEEE-754 binary32 or binary64
	Unsigned             // unsigned binary integer
	Signed               // two's-complement integer
)

// KindOf reports how T's bits are read.
func KindOf[T Value]() Kind {
	switch {
	case T(1)/2 != 0:
		return Float
	case T(0)-1 < 0:
		return Signed
	}
	return Unsigned
}

// Width reports the size of T in bytes: 4 for float32/uint32/int32, 8 for
// the rest. It is also the width of T's order-preserving key and of a T
// encoded on the wire or in a binary ingest row.
func Width[T Value]() int { return int(unsafe.Sizeof(T(0))) }

// KeyBits reports the width in bits of T's order-preserving integer key
// space: 32 for float32/uint32/int32, 64 for the rest.
func KeyBits[T Value]() int { return 8 * Width[T]() }

// Bits returns v's bit pattern — IEEE-754 for the float types, the integer's
// own bits otherwise — zero-extended to 64 bits.
func Bits[T Value](v T) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(*(*uint32)(unsafe.Pointer(&v)))
	}
	return *(*uint64)(unsafe.Pointer(&v))
}

// FromBits inverts Bits; bits above T's width are ignored.
func FromBits[T Value](b uint64) (v T) {
	if unsafe.Sizeof(v) == 4 {
		*(*uint32)(unsafe.Pointer(&v)) = uint32(b)
	} else {
		*(*uint64)(unsafe.Pointer(&v)) = b
	}
	return v
}

// OrderedKey maps v to a uint64 key such that a < b iff
// OrderedKey(a) < OrderedKey(b): the classic bit flips for floats (flip all
// bits of negatives, the sign bit of non-negatives), a sign-bit flip for
// signed integers, identity for unsigned. The key is zero-extended from T's
// width. Where < leaves the order open it is total: -NaN < -Inf < … < -0 <
// +0 < … < +Inf < +NaN. Radix sorting, the wire format and the GPU
// selection's key-space binary search build on it.
func OrderedKey[T Value](v T) uint64 {
	b := Bits(v)
	return b ^ keyMask[T](b)
}

// FromOrderedKey inverts OrderedKey; key bits above T's width are ignored.
func FromOrderedKey[T Value](k uint64) T {
	return FromBits[T](k ^ keyMask[T](^k))
}

// keyMask is what OrderedKey xors into the bits of a value, given a word
// whose bit at T's sign position says the value is negative: every bit of a
// negative float and the sign bit of a non-negative one, the sign bit of a
// signed integer, nothing for unsigned. OrderedKey and FromOrderedKey must
// inline into the radix kernel's loops wherever it is instantiated
// (DESIGN.md §7), which fixes two things here. keyMask is generic: go1.24
// did not inline a non-generic helper called from an instantiation compiled
// in cmd/streamd's main. And it spells out KindOf's two facts: calling
// KindOf costs a dictionary and lifts both callers over the inline budget.
func keyMask[T Value](neg uint64) uint64 {
	sh := 8*unsafe.Sizeof(T(0)) - 1
	if T(0)-1 > 0 {
		return 0 // unsigned
	}
	if T(1)/2 == 0 {
		return 1 << sh // signed
	}
	return -(neg>>sh&1)>>(63-sh) | 1<<sh // all ones at T's width, or the sign bit
}

// ExpMask is the exponent field of a float T's IEEE-754 encoding, all ones
// in Bits exactly on NaN and ±Inf; 0 for the integer types, whose every bit
// pattern is a value.
func ExpMask[T Value]() uint64 {
	if KindOf[T]() != Float {
		return 0
	}
	if Width[T]() == 4 {
		return 0x7f800000
	}
	return 0x7ff0000000000000
}

// MaxValue returns the largest representable T: +Inf for the float
// instantiations, the maximum integer otherwise. It is the generic analog of
// the paper's +Inf padding — a sentinel that sorts to the end of every
// channel.
func MaxValue[T Value]() T {
	if KindOf[T]() == Float {
		return FromBits[T](ExpMask[T]())
	}
	return FromOrderedKey[T](^uint64(0))
}

// MinValue returns the smallest representable T: -Inf for the float
// instantiations, the minimum integer otherwise.
func MinValue[T Value]() T {
	if KindOf[T]() == Float {
		return -MaxValue[T]()
	}
	return FromOrderedKey[T](0)
}

// WireTag is T's value-type tag in the snapshot header (internal/wire):
// 1 float32, 2 float64, 3 uint32, 4 uint64, 5 int32, 6 int64 — kind-major,
// then narrow before wide.
func WireTag[T Value]() uint8 {
	return 1 + 2*uint8(KindOf[T]()) + uint8(Width[T]()/8)
}

// Parse reads one decimal literal as a T, by strconv at T's kind and width:
// ParseFloat for the float types (so it also takes strconv's NaN and Inf
// spellings), ParseUint or ParseInt in base 10 otherwise. On a range error
// the value is strconv's clamped one.
func Parse[T Value](s string) (T, error) {
	switch KindOf[T]() {
	case Float:
		f, err := strconv.ParseFloat(s, KeyBits[T]())
		return T(f), err
	case Signed:
		i, err := strconv.ParseInt(s, 10, KeyBits[T]())
		return T(i), err
	}
	u, err := strconv.ParseUint(s, 10, KeyBits[T]())
	return T(u), err
}

// Decimal is a decimal literal's value as ±Mant·10^Exp, read digit by digit
// by a scan that has already checked the literal's grammar (the daemon's
// JSON batch scanner). FromDecimal finishes it as a T where that is exact.
// It has four fields so that it is passed in registers: the compiler keeps a
// struct of more in memory, and the copy at every call then stalls.
type Decimal struct {
	Mant  uint64 // the literal's digits read as one integer, the point dropped
	Exp   int    // the power of ten Mant is scaled by
	Neg   bool   // a minus sign: -0 is Neg with Mant 0
	Shape Shape
}

// Shape is how a decimal literal is spelled, as far as FromDecimal cares.
type Shape uint8

const (
	IntLiteral  Shape = iota // digits only: no point, no exponent
	RealLiteral              // with a point or an exponent: only a float takes it
	LongLiteral              // Mant or Exp does not hold it: more than MaxDecimalDigits digits, or an exponent too large
)

// MaxDecimalDigits is how many digits Decimal.Mant holds: every 19-digit
// number is below 2^64.
const MaxDecimalDigits = 19

// Powers of ten that float32 and float64 hold exactly: 10^k = 2^k·5^k, and
// 5^10 < 2^24, 5^22 < 2^53. Each table's length bounds the exponents
// FromDecimal takes for its type.
var (
	pow10f32 = [...]float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	pow10f64 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
)

// FromDecimal returns the T that Parse returns for d's literal, when it can
// say so without strconv, and false otherwise (the caller then calls Parse
// on the literal). Those are the cases where the answer takes no rounding
// or one exact IEEE operation, which rounds once, correctly (Clinger's fast
// path):
//   - an integer kind: d spelled as an integer and within T's range, with
//     no minus sign for an unsigned T (strconv rejects it, even on -0);
//   - float32: Mant ≤ 2^24 and |Exp| ≤ 10, so Mant and 10^|Exp| are both
//     exact float32s, and Mant·10^Exp is their product or quotient;
//   - float64: Mant ≤ 2^53 and |Exp| ≤ 22, likewise.
func FromDecimal[T Value](d Decimal) (T, bool) {
	if d.Shape == LongLiteral {
		return 0, false
	}
	switch KindOf[T]() {
	case Float:
		if Width[T]() == 4 {
			f, ok := exactFloat(d, 1<<24, pow10f32[:])
			return T(f), ok
		}
		f, ok := exactFloat(d, 1<<53, pow10f64[:])
		return T(f), ok
	case Signed:
		// T's maximum, or one more for a negative literal: |MinValue|.
		lim := ^uint64(0) >> (65 - KeyBits[T]())
		if d.Neg {
			lim++
		}
		if d.Shape != IntLiteral || d.Mant > lim {
			return 0, false
		}
		v := T(d.Mant) // wraps at |MinValue|, which the negation maps to itself
		if d.Neg {
			v = -v
		}
		return v, true
	}
	if d.Shape != IntLiteral || d.Neg || d.Mant > ^uint64(0)>>(64-KeyBits[T]()) {
		return 0, false
	}
	return T(d.Mant), true
}

// exactFloat is FromDecimal for a float type F whose significand holds every
// integer up to maxMant and whose exact powers of ten are pow10: Mant and
// 10^|Exp| are then both exact in F, so the one multiply or divide rounds
// once, to the correctly rounded value.
func exactFloat[F float32 | float64](d Decimal, maxMant uint64, pow10 []F) (F, bool) {
	if d.Mant > maxMant || d.Exp <= -len(pow10) || d.Exp >= len(pow10) {
		return 0, false
	}
	f := F(d.Mant)
	if d.Exp < 0 {
		f /= pow10[-d.Exp]
	} else {
		f *= pow10[d.Exp]
	}
	if d.Neg {
		f = -f
	}
	return f, true
}
