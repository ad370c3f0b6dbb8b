// Package half implements IEEE 754 half-precision (binary16) conversion.
// The paper's input streams carry "100 million elements with 16-bit
// floating point precision" and its GPU implementation renders into
// "double buffered 16-bit offscreen buffers" (Section 4.5); this package
// provides the quantization those configurations imply, so experiments can
// run with paper-faithful precision. Round-trip order preservation —
// a <= b implies half(a) <= half(b) — keeps sorting and rank queries
// meaningful after quantization.
package half

import "math"

// Bits is a raw binary16 value.
type Bits uint16

// FromFloat32 converts f to the nearest binary16 (round-to-nearest-even),
// with overflow to infinity and graceful subnormal handling.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xFF) - 127
	mant := b & 0x7FFFFF

	switch {
	case exp == 128: // Inf or NaN
		if mant != 0 {
			return Bits(sign | 0x7E00) // quiet NaN
		}
		return Bits(sign | 0x7C00)
	case exp > 15: // overflow -> Inf
		return Bits(sign | 0x7C00)
	case exp >= -14: // normal range
		// 10-bit mantissa, round to nearest even on the dropped 13 bits.
		out := uint32(exp+15)<<10 | mant>>13
		round := mant & 0x1FFF
		if round > 0x1000 || (round == 0x1000 && out&1 == 1) {
			out++
		}
		return Bits(sign | uint16(out))
	case exp >= -24: // subnormal half: value = out * 2^-24
		shift := uint32(-exp - 1) // 14..23
		full := mant | 0x800000   // 1.m as a 24-bit integer
		out := full >> shift
		rem := full & (1<<shift - 1)
		halfPoint := uint32(1) << (shift - 1)
		if rem > halfPoint || (rem == halfPoint && out&1 == 1) {
			out++
		}
		return Bits(sign | uint16(out))
	default: // underflow -> signed zero
		return Bits(sign)
	}
}

// ToFloat32 converts a binary16 back to float32 exactly.
func (h Bits) ToFloat32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1F:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// Quantize rounds every element of data through binary16 in place,
// emulating a 16-bit stream or render target.
func Quantize(data []float32) {
	for i, v := range data {
		data[i] = FromFloat32(v).ToFloat32()
	}
}

// MaxValue is the largest finite binary16 value.
const MaxValue = 65504

// Eps is the relative precision of binary16 normals (2^-11).
const Eps = 1.0 / 2048
