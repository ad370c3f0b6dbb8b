package gpusort

import (
	"gpustream/internal/cpusort"
	"gpustream/internal/gpu"
	"gpustream/internal/sorter"
)

// SortStats describes one completed sort: the exact GPU operation counters
// and the CPU-side merge work. The perfmodel package converts these to
// modeled GeForce-6800 / Pentium-IV time. The counters depend only on the
// input length — two sorts of equal n produce identical SortStats whatever
// the element type.
type SortStats struct {
	N          int       // values sorted
	GPU        gpu.Stats // exact simulator counters (compute + bus)
	MergeCmps  int64     // CPU comparisons in the k-way channel merge
	ChannelLen int       // texels per channel (padded length)
}

// Sorter is the paper's GPU sorting algorithm packaged behind the
// sorter.Sorter interface: values are padded with the element type's maximum
// (+Inf for floats) to a power-of-two per-channel length, packed across the
// four RGBA channels of a 2D texture, uploaded, sorted with PBSN, read back,
// and merged on the CPU.
type Sorter[T sorter.Value] struct {
	// ChannelsUsed is how many texture channels carry data (1..4).
	// 4 is the paper's configuration; 1 is the ablation without
	// vector-parallel channel packing.
	ChannelsUsed int

	// HalfTargets renders into 16-bit offscreen buffers, the paper's
	// Section 4.5 configuration: values coarsen to binary16 precision but
	// ordering is preserved (quantization is monotone). The mode only
	// affects float32 instantiations; see gpu.SetHalfPrecisionTargets.
	HalfTargets bool

	last  SortStats
	total gpu.Stats
}

// NewSorter returns the paper-configured GPU sorter (4 channels).
func NewSorter[T sorter.Value]() *Sorter[T] { return &Sorter[T]{ChannelsUsed: 4} }

// Name implements sorter.Sorter.
func (s *Sorter[T]) Name() string {
	if s.ChannelsUsed == 1 {
		return "gpu-pbsn-1ch"
	}
	return "gpu-pbsn"
}

// LastStats reports the statistics of the most recent Sort call.
func (s *Sorter[T]) LastStats() SortStats { return s.last }

// TotalGPU reports GPU counters accumulated across every Sort call.
func (s *Sorter[T]) TotalGPU() gpu.Stats { return s.total }

// Sort implements sorter.Sorter.
func (s *Sorter[T]) Sort(data []T) {
	n := len(data)
	if n <= 1 {
		s.last = SortStats{N: n}
		return
	}
	ch := s.ChannelsUsed
	if ch < 1 || ch > gpu.Channels {
		ch = gpu.Channels
	}
	per := (n + ch - 1) / ch
	w, h := gpu.TextureDims(per)
	per = w * h

	pad := sorter.MaxValue[T]()
	tex := gpu.NewTexture[T](w, h)
	tex.Fill(pad)
	for i, v := range data {
		c := i / per
		p := i % per
		tex.Data[p*gpu.Channels+c] = v
	}

	dev := gpu.NewDevice[T](w, h)
	dev.SetHalfPrecisionTargets(s.HalfTargets)
	dev.Upload(tex)
	PBSN(dev, tex)
	fb := dev.ReadFramebuffer()

	runs := make([][]T, ch)
	for c := 0; c < ch; c++ {
		run := fb.UnpackChannel(c)
		// Strip padding from the tail; real maximum values in the data are
		// preserved because only the pad count is removed.
		padN := per*(c+1) - n
		if padN < 0 {
			padN = 0
		} else if padN > per {
			padN = per
		}
		runs[c] = run[:per-padN]
	}

	var merged []T
	var mergeCmps int64
	switch ch {
	case 1:
		merged = runs[0]
	case 4:
		merged = cpusort.Merge4(runs[0], runs[1], runs[2], runs[3])
		mergeCmps = int64(2 * n) // two pairwise merge levels, <= n cmps each
	default:
		merged = cpusort.KWayMerge(runs)
		mergeCmps = int64(n) * int64(log2ceil(ch))
	}
	copy(data, merged[:n])

	s.last = SortStats{N: n, GPU: dev.Stats(), MergeCmps: mergeCmps, ChannelLen: per}
	s.total.Add(dev.Stats())
}

func log2ceil(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

var (
	_ sorter.Sorter[float32] = (*Sorter[float32])(nil)
	_ sorter.Sorter[uint64]  = (*Sorter[uint64])(nil)
)
