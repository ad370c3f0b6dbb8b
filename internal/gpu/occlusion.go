package gpu

// Occlusion queries: the other fixed-function counting mechanism of
// 2004-era GPUs, which the paper's companion work (Govindaraju et al.,
// "Fast computation of database operations using graphics processors")
// uses for predicates, aggregates and k-th largest selection. A full-screen
// quad is rendered with an alpha-style test against a reference value and
// the hardware reports how many fragments passed.

// CountGreater renders a counting pass over the bound texture and reports,
// per channel, how many texels hold a value strictly greater than ref.
// Cost accounting matches a single-cycle alpha-test pass over every texel.
func (d *Device[T]) CountGreater(ref T) [Channels]int64 {
	if d.tex == nil {
		panic("gpu: CountGreater without a bound texture")
	}
	tex := d.tex
	area := int64(tex.Texels())
	d.stats.Passes++
	d.stats.Fragments += area
	d.stats.TexelFetches += area
	d.stats.ProgramInstr += area // one test instruction per fragment
	var counts [Channels]int64
	for p := 0; p < tex.Texels(); p++ {
		base := p * Channels
		for c := 0; c < Channels; c++ {
			if tex.Data[base+c] > ref {
				counts[c]++
			}
		}
	}
	return counts
}
