package gpu

import (
	"gpustream/internal/half"

	"math"
	"testing"
	"testing/quick"
)

func TestNewTexturePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTexture[float32](0, 4) did not panic")
		}
	}()
	NewTexture[float32](0, 4)
}

func TestTextureAtSet(t *testing.T) {
	tex := NewTexture[float32](4, 2)
	tex.Set(3, 1, 2, 7.5)
	if got := tex.At(3, 1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Layout check: texel (3,1) channel 2 is index ((1*4)+3)*4+2 = 30.
	if tex.Data[30] != 7.5 {
		t.Fatalf("unexpected layout, Data[30] = %v", tex.Data[30])
	}
	if got := tex.At(0, 0, 0); got != 0 {
		t.Fatalf("untouched texel = %v, want 0", got)
	}
}

func TestTextureBytesTexels(t *testing.T) {
	tex := NewTexture[float32](8, 4)
	if tex.Texels() != 32 {
		t.Fatalf("Texels = %d", tex.Texels())
	}
	if tex.Bytes() != 32*4*4 {
		t.Fatalf("Bytes = %d", tex.Bytes())
	}
}

func TestTextureCloneIndependent(t *testing.T) {
	tex := NewTexture[float32](2, 2)
	tex.Fill(3)
	c := tex.Clone()
	c.Set(0, 0, 0, 9)
	if tex.At(0, 0, 0) != 3 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCopyFromDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched dims did not panic")
		}
	}()
	NewTexture[float32](2, 2).CopyFrom(NewTexture[float32](4, 4))
}

func TestPackUnpackRoundTrip(t *testing.T) {
	data := make([]float32, 50)
	for i := range data {
		data[i] = float32(i) * 1.5
	}
	// The sorter's packing: pad, then one window per color channel.
	tex := NewTexture[float32](4, 4)
	tex.Fill(float32(math.Inf(1)))
	for c := 0; c*tex.Texels() < len(data); c++ {
		tex.LoadChannel(c, data[c*tex.Texels():min((c+1)*tex.Texels(), len(data))])
	}
	var got []float32
	for c := 0; c < Channels; c++ {
		got = append(got, tex.UnpackChannel(c)...)
	}
	for i, v := range data {
		if got[i] != v {
			t.Fatalf("round trip mismatch at %d: got %v want %v", i, got[i], v)
		}
	}
	for i := len(data); i < len(got); i++ {
		if !math.IsInf(float64(got[i]), 1) {
			t.Fatalf("padding at %d = %v, want +Inf", i, got[i])
		}
	}
}

func TestLoadChannel(t *testing.T) {
	tex := NewTexture[float32](2, 2)
	tex.LoadChannel(3, []float32{1, 2, 3, 4})
	got := tex.UnpackChannel(3)
	for i, want := range []float32{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("channel 3 = %v", got)
		}
	}
	if tex.UnpackChannel(0)[0] != 0 {
		t.Fatal("LoadChannel leaked into other channels")
	}
}

func TestLoadChannelPanicsWhenTooLong(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized LoadChannel did not panic")
		}
	}()
	NewTexture[float32](2, 2).LoadChannel(0, make([]float32, 5))
}

func TestTextureDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{0, 1, 1}, {1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2},
		{5, 4, 2}, {8, 4, 2}, {9, 4, 4}, {16, 4, 4}, {1 << 20, 1 << 10, 1 << 10},
	}
	for _, c := range cases {
		w, h := TextureDims(c.n)
		if w != c.w || h != c.h {
			t.Fatalf("TextureDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestTextureDimsProperties(t *testing.T) {
	prop := func(raw uint32) bool {
		n := int(raw % 5000000)
		w, h := TextureDims(n)
		if w*h < n && n > 0 {
			return false
		}
		// Powers of two.
		return w&(w-1) == 0 && h&(h-1) == 0 && w*h < 4*maxInt(n, 1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// quantHalf mirrors the device's 16-bit rounding for test expectations.
func quantHalf(v float32) float32 {
	// Inline import avoidance: the device's rounding is half.FromFloat32;
	// duplicate via the public package.
	return half.FromFloat32(v).ToFloat32()
}
