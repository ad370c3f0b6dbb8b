package gpu

import "gpustream/internal/sorter"

// FragmentProgram computes the output color of the pixel at (x, y). sample
// reads the bound texture (counted as a texel fetch). Returning the slice
// passed in as out avoids per-fragment allocation.
type FragmentProgram[T sorter.Value] func(x, y int, sample func(tx, ty int) [4]T, out []T)

// RunFragmentPass executes a programmable fragment pass over the framebuffer
// region [x0, x1) x [y0, y1): prog runs once per pixel and its output
// replaces the pixel. instrPerFragment is the declared instruction count of
// the program and feeds the timing model; the earlier GPU bitonic sort the
// paper compares against executes at least 53 instructions per pixel per
// stage (Section 4.5), an order of magnitude more than a blend.
//
// This models the Purcell et al. style of GPU computation — one rendering
// pass of a fragment program per algorithm stage — as opposed to the paper's
// fixed-function blending approach.
func (d *Device[T]) RunFragmentPass(x0, y0, x1, y1, instrPerFragment int, prog FragmentProgram[T]) {
	x0 = clampInt(x0, 0, d.fb.W)
	y0 = clampInt(y0, 0, d.fb.H)
	x1 = clampInt(x1, 0, d.fb.W)
	y1 = clampInt(y1, 0, d.fb.H)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	if d.tex == nil {
		panic("gpu: RunFragmentPass without a bound texture")
	}
	area := int64(x1-x0) * int64(y1-y0)
	d.stats.Passes++
	d.stats.Fragments += area
	d.stats.ProgramInstr += area * int64(instrPerFragment)

	tex := d.tex
	fetches := int64(0)
	sample := func(tx, ty int) [4]T {
		fetches++
		tx = clampInt(tx, 0, tex.W-1)
		ty = clampInt(ty, 0, tex.H-1)
		i := (ty*tex.W + tx) * Channels
		return [4]T{tex.Data[i], tex.Data[i+1], tex.Data[i+2], tex.Data[i+3]}
	}
	for y := y0; y < y1; y++ {
		di := (y*d.fb.W + x0) * Channels
		for x := x0; x < x1; x++ {
			out := d.fb.Data[di : di+Channels]
			prog(x, y, sample, out)
			if d.halfTargets {
				for c := range out {
					out[c] = d.halfRound(out[c])
				}
			}
			di += Channels
		}
	}
	d.stats.TexelFetches += fetches
}
