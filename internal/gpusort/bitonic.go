package gpusort

import (
	"gpustream/internal/cpusort"
	"gpustream/internal/gpu"
	"gpustream/internal/sorter"
)

// BitonicInstrPerFragment is the per-pixel instruction count of the prior
// GPU bitonic sort fragment program. The paper reports (Section 4.5) that
// the implementation of Purcell et al. "performs at least 53 instructions
// per pixel during each stage", versus 6-7 clock cycles for one of our blend
// operations — the source of the near-order-of-magnitude gap in Figure 3.
const BitonicInstrPerFragment = 53

// bitonicChannels is the number of texture channels the baseline packs data
// into. The hand-optimized prior-work sorter (Kipfer et al. style) packs two
// values per texel; unlike the paper's blending sorter it cannot exploit the
// full 4-wide vector blend path inside its fragment program.
const bitonicChannels = 2

// BitonicSorter is the prior-work baseline of Figure 3: a bitonic sorting
// network executed as one programmable fragment pass per stage (Purcell et
// al. [40], with Kipfer-style two-channel packing). It runs on the same GPU
// simulator as the paper's sorter, differing only in how each comparator
// stage is expressed — a fragment program instead of blending.
type BitonicSorter[T sorter.Value] struct {
	last  SortStats
	total gpu.Stats
}

// NewBitonicSorter returns the GPU bitonic baseline.
func NewBitonicSorter[T sorter.Value]() *BitonicSorter[T] { return &BitonicSorter[T]{} }

// Name implements sorter.Sorter.
func (s *BitonicSorter[T]) Name() string { return "gpu-bitonic" }

// LastStats reports the statistics of the most recent Sort call.
func (s *BitonicSorter[T]) LastStats() SortStats { return s.last }

// TotalGPU reports GPU counters accumulated across every Sort call.
func (s *BitonicSorter[T]) TotalGPU() gpu.Stats { return s.total }

// Sort implements sorter.Sorter.
func (s *BitonicSorter[T]) Sort(data []T) {
	n := len(data)
	if n <= 1 {
		s.last = SortStats{N: n}
		return
	}
	per := (n + bitonicChannels - 1) / bitonicChannels
	w, h := gpu.TextureDims(per)
	per = w * h

	tex := gpu.NewTexture[T](w, h)
	tex.Fill(sorter.MaxValue[T]())
	for i, v := range data {
		c := i / per
		p := i % per
		tex.Data[p*gpu.Channels+c] = v
	}

	dev := gpu.NewDevice[T](w, h)
	dev.Upload(tex)

	// One fragment pass per bitonic stage; the pass output is ping-ponged
	// back into the texture, as in the original multi-pass implementation.
	for k := 2; k <= per; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			stageK, stageJ := k, j
			dev.BindTexture(tex)
			dev.RunFragmentPass(0, 0, w, h, BitonicInstrPerFragment,
				func(x, y int, sample func(int, int) [4]T, out []T) {
					i := y*w + x
					p := i ^ stageJ
					self := sample(x, y)
					partner := sample(p%w, p/w)
					ascending := i&stageK == 0
					keepMin := (p > i) == ascending
					for c := 0; c < bitonicChannels; c++ {
						a, b := self[c], partner[c]
						if (a < b) == keepMin || a == b {
							out[c] = a
						} else {
							out[c] = b
						}
					}
					for c := bitonicChannels; c < gpu.Channels; c++ {
						out[c] = self[c]
					}
				})
			dev.SwapToTexture(tex)
		}
	}
	// The current state lives in tex (ping-ponged after every pass; with
	// a single texel per channel no pass runs at all).
	fb := dev.ReadTexture(tex)

	runs := make([][]T, bitonicChannels)
	for c := 0; c < bitonicChannels; c++ {
		run := fb.UnpackChannel(c)
		pad := per*(c+1) - n
		if pad < 0 {
			pad = 0
		} else if pad > per {
			pad = per
		}
		runs[c] = run[:per-pad]
	}
	merged := cpusort.Merge2(make([]T, 0, n), runs[0], runs[1])
	copy(data, merged[:n])

	s.last = SortStats{N: n, GPU: dev.Stats(), MergeCmps: int64(n), ChannelLen: per}
	s.total.Add(dev.Stats())
}

var _ sorter.Sorter[float32] = (*BitonicSorter[float32])(nil)
