package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"gpustream/internal/half"
	"gpustream/internal/sorter"
)

// BlendFunc selects how an incoming fragment color is combined with the color
// already in the framebuffer. The paper's sorting comparators use BlendMin
// and BlendMax (Section 4.2.2); BlendReplace implements plain copies. Under
// the generic simulator the min/max blends compare with the element type's
// natural ordering — for float32 that is exactly the 2004 hardware's blend
// unit, for the other instantiations it is the simulator extension described
// in the package comment.
type BlendFunc int

const (
	// BlendReplace writes the fragment color, discarding the old pixel.
	BlendReplace BlendFunc = iota
	// BlendMin keeps the channel-wise minimum of fragment and pixel.
	BlendMin
	// BlendMax keeps the channel-wise maximum of fragment and pixel.
	BlendMax
)

// String implements fmt.Stringer.
func (b BlendFunc) String() string {
	switch b {
	case BlendReplace:
		return "replace"
	case BlendMin:
		return "min"
	case BlendMax:
		return "max"
	}
	return fmt.Sprintf("BlendFunc(%d)", int(b))
}

// Point is a 2D vertex or texture coordinate.
type Point struct{ X, Y float64 }

// Device simulates a single GPU: a framebuffer, one bound texture, blend
// state, and operation counters. A Device is not safe for concurrent use;
// like a real graphics context it is driven from one thread, though DrawQuad
// internally shades large quads with parallel workers (modeling the 16
// parallel fragment pipes of the GeForce 6800).
type Device[T sorter.Value] struct {
	fb        *Texture[T]
	tex       *Texture[T]
	texturing bool
	blending  bool
	blend     BlendFunc
	stats     Stats

	// parallelThreshold is the minimum quad area (in pixels) before rows
	// are shaded by parallel workers. Exposed for tests.
	parallelThreshold int

	// halfTargets, when set, rounds every value written to the render
	// target through IEEE half precision, modeling the paper's 16-bit
	// offscreen buffers (Section 4.5). halfRound is the rounding function;
	// it is nil for every element type except float32, because binary16
	// quantization only models the float32 pipeline — other instantiations
	// pass through unquantized.
	halfTargets bool
	halfRound   func(T) T
}

// halfRoundFn returns the binary16 rounding function when T is float32 and
// nil otherwise.
func halfRoundFn[T sorter.Value]() func(T) T {
	var z T
	if _, ok := any(z).(float32); !ok {
		return nil
	}
	return func(v T) T {
		f := any(v).(float32)
		return any(half.FromFloat32(f).ToFloat32()).(T)
	}
}

// SetHalfPrecisionTargets switches the framebuffer between full 32-bit and
// the paper's 16-bit offscreen-buffer precision. Because binary16
// quantization is monotone, sorting still orders correctly; values simply
// coarsen to ~11 bits of mantissa. The mode only quantizes float32
// instantiations; for other element types it is a no-op.
func (d *Device[T]) SetHalfPrecisionTargets(on bool) {
	d.halfTargets = on && d.halfRound != nil
}

// NewDevice creates a device with a w x h framebuffer.
func NewDevice[T sorter.Value](w, h int) *Device[T] {
	return &Device[T]{
		fb:                NewTexture[T](w, h),
		blend:             BlendReplace,
		parallelThreshold: 1 << 14,
		halfRound:         halfRoundFn[T](),
	}
}

// Framebuffer exposes the device's framebuffer. Mutating it directly is the
// simulation analog of rendering from the CPU and is used only by tests.
func (d *Device[T]) Framebuffer() *Texture[T] { return d.fb }

// Stats returns a snapshot of the operation counters.
func (d *Device[T]) Stats() Stats { return d.stats }

// ResetStats zeroes the operation counters.
func (d *Device[T]) ResetStats() { d.stats = Stats{} }

// BindTexture makes t the active texture and enables texturing.
// Binding nil disables texturing.
func (d *Device[T]) BindTexture(t *Texture[T]) {
	d.tex = t
	d.texturing = t != nil
}

// SetBlend enables blending with the given function. BlendReplace disables
// blending (it is the fixed-function default).
func (d *Device[T]) SetBlend(f BlendFunc) {
	d.blend = f
	d.blending = f != BlendReplace
}

// Upload accounts for a CPU -> GPU transfer of t over the bus. In the
// simulator textures already live in host memory, so only the counters move;
// the perfmodel turns the byte count into AGP-bus time.
func (d *Device[T]) Upload(t *Texture[T]) {
	d.stats.BytesUp += int64(t.Bytes())
	d.stats.Transfers++
}

// ReadFramebuffer returns a copy of the framebuffer and accounts for the
// GPU -> CPU readback over the bus.
func (d *Device[T]) ReadFramebuffer() *Texture[T] {
	d.stats.BytesDown += int64(d.fb.Bytes())
	d.stats.Transfers++
	return d.fb.Clone()
}

// ReadTexture returns a copy of t and accounts for the GPU -> CPU readback
// over the bus, for algorithms whose final state lives in a render texture
// rather than the framebuffer.
func (d *Device[T]) ReadTexture(t *Texture[T]) *Texture[T] {
	d.stats.BytesDown += int64(t.Bytes())
	d.stats.Transfers++
	return t.Clone()
}

// SwapToTexture copies the framebuffer contents into t without bus traffic,
// modeling the paper's double-buffered offscreen buffers (Section 4.5): the
// output of one sorting step becomes the input texture of the next by a
// buffer swap, which is free on the GPU.
func (d *Device[T]) SwapToTexture(t *Texture[T]) {
	t.CopyFrom(d.fb)
}

// quadGeom captures a validated axis-aligned quad and its (bilinear, here
// always affine) texture-coordinate mapping.
type quadGeom struct {
	x0, y0, x1, y1         int     // pixel bounds, half-open
	u0, v0                 float64 // texcoords at the (x0, y0) corner
	dudx, dudy, dvdx, dvdy float64
}

// analyzeQuad validates that v describes an axis-aligned rectangle with
// vertices in the paper's order — (x0,y0), (x1,y0), (x1,y1), (x0,y1) — and
// that the texture coordinates t interpolate affinely across it (true for
// every routine in the paper). It returns the derived geometry.
func analyzeQuad(v, t [4]Point) (quadGeom, error) {
	var g quadGeom
	if v[0].Y != v[1].Y || v[2].Y != v[3].Y || v[0].X != v[3].X || v[1].X != v[2].X {
		return g, fmt.Errorf("gpu: quad vertices %v are not an axis-aligned rectangle", v)
	}
	if v[1].X < v[0].X || v[3].Y < v[0].Y {
		return g, fmt.Errorf("gpu: quad vertices %v are not in CCW order from the min corner", v)
	}
	// Bilinear interpolation degenerates to affine when opposite corner
	// sums match. Reject the non-affine case rather than approximate it.
	if t[0].X+t[2].X != t[1].X+t[3].X || t[0].Y+t[2].Y != t[1].Y+t[3].Y {
		return g, fmt.Errorf("gpu: texture coordinates %v are not affine over the quad", t)
	}
	w := v[1].X - v[0].X
	h := v[3].Y - v[0].Y
	if w <= 0 || h <= 0 {
		return g, fmt.Errorf("gpu: degenerate quad %v", v)
	}
	g.x0, g.y0 = int(v[0].X), int(v[0].Y)
	g.x1, g.y1 = int(v[1].X), int(v[3].Y)
	if float64(g.x0) != v[0].X || float64(g.y0) != v[0].Y || float64(g.x1) != v[1].X || float64(g.y1) != v[3].Y {
		return g, fmt.Errorf("gpu: quad corners %v must be integral", v)
	}
	g.u0, g.v0 = t[0].X, t[0].Y
	g.dudx = (t[1].X - t[0].X) / w
	g.dudy = (t[3].X - t[0].X) / h
	g.dvdx = (t[1].Y - t[0].Y) / w
	g.dvdy = (t[3].Y - t[0].Y) / h
	return g, nil
}

// DrawQuad rasterizes an axis-aligned textured quad: each covered pixel
// samples the bound texture at its interpolated texture coordinate (nearest
// filtering at the pixel center) and the result is combined into the
// framebuffer with the current blend function. This single operation is the
// comparator primitive of the paper's sorting networks: the texture
// coordinates express the comparator *mapping*, the blend function the
// comparator *comparison*.
//
// Vertices must form an axis-aligned rectangle with integral corners in the
// order (x0,y0), (x1,y0), (x1,y1), (x0,y1); texture coordinates must vary
// affinely. The quad is clipped to the framebuffer.
func (d *Device[T]) DrawQuad(v, t [4]Point) {
	g, err := analyzeQuad(v, t)
	if err != nil {
		panic(err)
	}
	// Clip to the framebuffer, shifting the texcoord origin along with the
	// quad's min corner so interpolation is unchanged for surviving pixels.
	if g.x0 < 0 {
		g.u0 += float64(-g.x0) * g.dudx
		g.v0 += float64(-g.x0) * g.dvdx
		g.x0 = 0
	}
	if g.y0 < 0 {
		g.u0 += float64(-g.y0) * g.dudy
		g.v0 += float64(-g.y0) * g.dvdy
		g.y0 = 0
	}
	if g.x1 > d.fb.W {
		g.x1 = d.fb.W
	}
	if g.y1 > d.fb.H {
		g.y1 = d.fb.H
	}
	if g.x0 >= g.x1 || g.y0 >= g.y1 {
		d.stats.DrawCalls++
		return
	}
	if !d.texturing {
		panic("gpu: DrawQuad without a bound texture")
	}

	area := int64(g.x1-g.x0) * int64(g.y1-g.y0)
	d.stats.DrawCalls++
	d.stats.Fragments += area
	d.stats.TexelFetches += area
	if d.blending {
		d.stats.BlendOps += area
	}

	if area >= int64(d.parallelThreshold) {
		d.shadeRowsParallel(g)
	} else {
		d.shadeRows(g, g.y0, g.y1)
	}
}

// shadeRowsParallel splits the quad's rows across workers. Rows write
// disjoint framebuffer pixels, so no synchronization beyond the WaitGroup is
// needed — the same reason real fragment pipes can run lock-free.
func (d *Device[T]) shadeRowsParallel(g quadGeom) {
	workers := runtime.GOMAXPROCS(0)
	rows := g.y1 - g.y0
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		d.shadeRows(g, g.y0, g.y1)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := g.y0 + w*chunk
		hi := lo + chunk
		if hi > g.y1 {
			hi = g.y1
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			d.shadeRows(g, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// shadeRows shades rows [yLo, yHi) of the quad g.
func (d *Device[T]) shadeRows(g quadGeom, yLo, yHi int) {
	tex := d.tex
	fb := d.fb
	// Fast path: unit-stride source stepping in x with no cross-terms.
	// Every routine in the paper's sorter hits this path; the generic path
	// below keeps the simulator correct for arbitrary affine mappings.
	unit := g.dvdx == 0 && g.dudy == 0 && (g.dudx == 1 || g.dudx == -1)
	for y := yLo; y < yHi; y++ {
		cy := float64(y) + 0.5
		uRow := g.u0 + (cy-float64(g.y0))*g.dudy + 0.5*g.dudx
		vRow := g.v0 + (cy-float64(g.y0))*g.dvdy + 0.5*g.dvdx
		if unit {
			ty := clampInt(floorInt(vRow), 0, tex.H-1)
			sx := floorInt(uRow)
			step := 1
			if g.dudx < 0 {
				step = -1
			}
			// The tight span loop assumes the whole source run is in
			// bounds; fall through to the generic clamped loop otherwise.
			last := sx + (g.x1-g.x0-1)*step
			if sx >= 0 && sx < tex.W && last >= 0 && last < tex.W {
				d.shadeSpanUnit(fb, tex, y, g.x0, g.x1, ty, sx, step)
				continue
			}
		}
		di := (y*fb.W + g.x0) * Channels
		u, vv := uRow, vRow
		for x := g.x0; x < g.x1; x++ {
			tx := clampInt(floorInt(u), 0, tex.W-1)
			ty := clampInt(floorInt(vv), 0, tex.H-1)
			si := (ty*tex.W + tx) * Channels
			d.blendTexel(fb.Data[di:di+Channels], tex.Data[si:si+Channels])
			di += Channels
			u += g.dudx
			vv += g.dvdx
		}
	}
}

// shadeSpanUnit shades one row whose source texels advance with unit stride.
// This is the hot loop of the whole simulator: one call covers a full row of
// a sorting-step quad.
func (d *Device[T]) shadeSpanUnit(fb, tex *Texture[T], y, x0, x1, ty, sx, step int) {
	if d.halfTargets {
		d.shadeSpanUnitHalf(fb, tex, y, x0, x1, ty, sx, step)
		return
	}
	n := x1 - x0
	// Clamp the source span into the texture, pixel by pixel only at the
	// edges; interior runs without bounds checks on the source row.
	di := (y*fb.W + x0) * Channels
	si := (ty*tex.W + clampInt(sx, 0, tex.W-1)) * Channels
	sstep := step * Channels
	dst := fb.Data
	src := tex.Data
	switch d.blend {
	case BlendMin:
		for i := 0; i < n; i++ {
			if s := src[si]; s < dst[di] {
				dst[di] = s
			}
			if s := src[si+1]; s < dst[di+1] {
				dst[di+1] = s
			}
			if s := src[si+2]; s < dst[di+2] {
				dst[di+2] = s
			}
			if s := src[si+3]; s < dst[di+3] {
				dst[di+3] = s
			}
			di += Channels
			si += sstep
		}
	case BlendMax:
		for i := 0; i < n; i++ {
			if s := src[si]; s > dst[di] {
				dst[di] = s
			}
			if s := src[si+1]; s > dst[di+1] {
				dst[di+1] = s
			}
			if s := src[si+2]; s > dst[di+2] {
				dst[di+2] = s
			}
			if s := src[si+3]; s > dst[di+3] {
				dst[di+3] = s
			}
			di += Channels
			si += sstep
		}
	default: // BlendReplace
		if step == 1 {
			copy(dst[di:di+n*Channels], src[si:si+n*Channels])
			return
		}
		for i := 0; i < n; i++ {
			copy(dst[di:di+Channels], src[si:si+Channels])
			di += Channels
			si += sstep
		}
	}
}

// shadeSpanUnitHalf is shadeSpanUnit with every written value rounded
// through binary16, the 16-bit offscreen-buffer mode (float32 only).
func (d *Device[T]) shadeSpanUnitHalf(fb, tex *Texture[T], y, x0, x1, ty, sx, step int) {
	n := x1 - x0
	di := (y*fb.W + x0) * Channels
	si := (ty*tex.W + clampInt(sx, 0, tex.W-1)) * Channels
	sstep := step * Channels
	dst := fb.Data
	src := tex.Data
	for i := 0; i < n; i++ {
		for c := 0; c < Channels; c++ {
			s := d.halfRound(src[si+c])
			switch d.blend {
			case BlendMin:
				if s < dst[di+c] {
					dst[di+c] = s
				}
			case BlendMax:
				if s > dst[di+c] {
					dst[di+c] = s
				}
			default:
				dst[di+c] = s
			}
		}
		di += Channels
		si += sstep
	}
}

// blendTexel applies the current blend function channel-wise.
func (d *Device[T]) blendTexel(dst, src []T) {
	var q [Channels]T
	if d.halfTargets {
		for c := 0; c < Channels; c++ {
			q[c] = d.halfRound(src[c])
		}
		src = q[:]
	}
	switch d.blend {
	case BlendMin:
		for c := 0; c < Channels; c++ {
			if src[c] < dst[c] {
				dst[c] = src[c]
			}
		}
	case BlendMax:
		for c := 0; c < Channels; c++ {
			if src[c] > dst[c] {
				dst[c] = src[c]
			}
		}
	default:
		copy(dst, src)
	}
}

func floorInt(f float64) int {
	i := int(f)
	if f < 0 && float64(i) != f {
		i--
	}
	return i
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
