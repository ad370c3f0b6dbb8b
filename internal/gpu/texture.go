// Package gpu is a functional simulator of the fixed-function GPU subset the
// paper's algorithms use: RGBA textures, a framebuffer, REPLACE / MIN / MAX
// color blending, and rasterization of axis-aligned textured quads with
// affine texture-coordinate interpolation (Section 4.2 of the paper).
//
// The simulator plays the role of the NVIDIA GeForce 6800 Ultra the paper
// runs on. It executes the paper's routines (Copy, ComputeMin, ComputeMax,
// SortStep, ...) with real data so correctness is checked for real, and it
// counts every primitive operation — fragments shaded, blend operations,
// texel fetches, bytes across the CPU<->GPU bus — so that the companion
// perfmodel package can convert counts to modeled GeForce-6800 time.
//
// Textures and devices are generic over the stack's ordered value types. The
// 2004 hardware blended float32 render targets only; the other
// instantiations are a simulator extension that reuses the same comparator
// structure, so operation counts — and therefore modeled GPU time — depend
// only on the data shape, never on the element type. Cost accounting
// likewise stays in the hardware's native units: a texel is 4 channels x 4
// bytes regardless of the simulated element type.
package gpu

import (
	"fmt"

	"gpustream/internal/sorter"
)

// Channels is the number of color channels per texel (RGBA).
const Channels = 4

// texelBytes is the modeled size of one RGBA texel on the wire and in video
// memory: 4 float32 channels, the 2004 hardware's native format. It is
// deliberately independent of the simulated element type so that modeled bus
// and memory traffic are identical across instantiations.
const texelBytes = Channels * 4

// Texture is a W x H array of RGBA texels, the GPU's only data container
// (paper Section 4.1). Texels are stored row-major, channels interleaved:
// texel (x, y) channel c lives at ((y*W)+x)*4 + c.
type Texture[T sorter.Value] struct {
	W, H int
	Data []T
}

// NewTexture allocates a zeroed texture of the given dimensions.
func NewTexture[T sorter.Value](w, h int) *Texture[T] {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("gpu: invalid texture size %dx%d", w, h))
	}
	return &Texture[T]{W: w, H: h, Data: make([]T, w*h*Channels)}
}

// Texels reports the number of texels (W*H).
func (t *Texture[T]) Texels() int { return t.W * t.H }

// Bytes reports the texture's modeled size in bytes (4 channels x 4 bytes
// per texel, the hardware's float32 format, independent of T).
func (t *Texture[T]) Bytes() int { return t.W * t.H * texelBytes }

// At returns the value of channel c at texel (x, y).
func (t *Texture[T]) At(x, y, c int) T {
	return t.Data[(y*t.W+x)*Channels+c]
}

// Set stores v into channel c at texel (x, y).
func (t *Texture[T]) Set(x, y, c int, v T) {
	t.Data[(y*t.W+x)*Channels+c] = v
}

// Fill sets every channel of every texel to v.
func (t *Texture[T]) Fill(v T) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Clone returns a deep copy of the texture.
func (t *Texture[T]) Clone() *Texture[T] {
	c := NewTexture[T](t.W, t.H)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's contents into t. The dimensions must match.
func (t *Texture[T]) CopyFrom(src *Texture[T]) {
	if t.W != src.W || t.H != src.H {
		panic("gpu: CopyFrom dimension mismatch")
	}
	copy(t.Data, src.Data)
}

// UnpackChannel extracts channel c as a contiguous slice of W*H values in
// texel order.
func (t *Texture[T]) UnpackChannel(c int) []T {
	out := make([]T, t.Texels())
	for p := range out {
		out[p] = t.Data[p*Channels+c]
	}
	return out
}

// LoadChannel stores data into channel c in texel order. It panics if data
// is longer than W*H; shorter data leaves the tail untouched.
func (t *Texture[T]) LoadChannel(c int, data []T) {
	if len(data) > t.Texels() {
		panic("gpu: LoadChannel data larger than texture")
	}
	for p, v := range data {
		t.Data[p*Channels+c] = v
	}
}

// TextureDims returns the width and height of the texture used to hold n
// values in a single channel, following the paper's layout: a power-of-two
// square-ish texture with W = 2^ceil(log4 n) style splitting. Width and
// height are each powers of two and W*H is the smallest such product >= n.
func TextureDims(n int) (w, h int) {
	if n <= 0 {
		return 1, 1
	}
	w, h = 1, 1
	for w*h < n {
		if w <= h {
			w *= 2
		} else {
			h *= 2
		}
	}
	return w, h
}
