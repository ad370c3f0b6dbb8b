package perfmodel

import (
	"math"
	"time"

	"gpustream/internal/gpu"
	"gpustream/internal/pipeline"
)

// Closed-form cost formulas. They predict the same quantities the simulator
// counts, without running it, so the figure harness can sweep to the paper's
// full 8M-element and 100M-value scales quickly. TestClosedFormMatchesSim
// verifies the formulas agree exactly with the simulator's counters.

// pbsnChannels is the channel packing of the paper's sorter.
const pbsnChannels = 4

// bitonicPackedChannels mirrors gpusort's bitonic baseline packing.
const bitonicPackedChannels = 2

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// texelsFor reproduces the sorter's texture sizing: per-channel count padded
// to a power-of-two W*H product.
func texelsFor(n, channels int) int {
	per := (n + channels - 1) / channels
	w, h := gpu.TextureDims(per)
	return w * h
}

// PBSNStats predicts the simulator counters for sorting n values with the
// paper's 4-channel PBSN sorter.
func PBSNStats(n int) gpu.Stats {
	if n <= 1 {
		return gpu.Stats{}
	}
	per := texelsFor(n, pbsnChannels)
	L := log2ceil(per)
	steps := int64(L) * int64(L)
	texels := int64(per)
	frag := texels * steps
	var drawCalls int64 = 1 // the initial Copy
	// Per step: 2 quads per block when blocks span rows, 2 per row block
	// otherwise. Count them exactly as SortStep issues them.
	w, _ := gpu.TextureDims((n + pbsnChannels - 1) / pbsnChannels)
	for s := 0; s < L; s++ {
		for b := L; b >= 1; b-- {
			B := 1 << b
			if B <= w {
				drawCalls += 2 * int64(w/B)
			} else {
				drawCalls += 2 * int64(per/B)
			}
		}
	}
	bytes := int64(per) * gpu.Channels * 4
	return gpu.Stats{
		DrawCalls:    drawCalls,
		Fragments:    frag + texels, // + initial Copy pass
		BlendOps:     frag,
		TexelFetches: frag + texels,
		BytesUp:      bytes,
		BytesDown:    bytes,
		Transfers:    2,
	}
}

// BitonicStats predicts the simulator counters for the prior-work GPU
// bitonic sorter on n values (2-channel packing, one fragment pass per
// stage, 53 instructions per fragment).
func BitonicStats(n int) gpu.Stats {
	if n <= 1 {
		return gpu.Stats{}
	}
	per := texelsFor(n, bitonicPackedChannels)
	L := log2ceil(per)
	stages := int64(L) * int64(L+1) / 2
	frag := int64(per) * stages
	bytes := int64(per) * gpu.Channels * 4
	return gpu.Stats{
		Passes:       stages,
		Fragments:    frag,
		ProgramInstr: frag * 53,
		TexelFetches: frag * 2,
		BytesUp:      bytes,
		BytesDown:    bytes,
		Transfers:    2,
	}
}

// PBSNSortTime models a full GPU PBSN sort of n values, including transfer,
// setup and the CPU channel merge (2n comparisons across two merge levels).
func (m Model) PBSNSortTime(n int) SortBreakdown {
	if n <= 1 {
		return SortBreakdown{}
	}
	return m.GPUSortFromStats(PBSNStats(n), int64(2*n))
}

// BitonicSortTime models a full prior-work GPU bitonic sort of n values.
func (m Model) BitonicSortTime(n int) SortBreakdown {
	if n <= 1 {
		return SortBreakdown{}
	}
	return m.GPUSortFromStats(BitonicStats(n), int64(n))
}

// CPUVariant selects a CPU quicksort build.
type CPUVariant int

const (
	// IntelHT is the Intel-compiled hyper-threaded quicksort.
	IntelHT CPUVariant = iota
	// MSVC is the plain qsort build.
	MSVC
)

// String implements fmt.Stringer.
func (v CPUVariant) String() string {
	if v == MSVC {
		return "cpu-msvc"
	}
	return "cpu-intel-ht"
}

// QuicksortTime models sorting n uniform values on the Pentium IV:
// ~1.386 n log2 n expected comparisons at the calibrated per-comparison
// cost.
func (m Model) QuicksortTime(n int, v CPUVariant) time.Duration {
	if n <= 1 {
		return 0
	}
	cmps := 1.386 * float64(n) * math.Log2(float64(n))
	cyc := cmps * m.CPU.CyclesPerCmp
	if v == MSVC {
		cyc *= m.CPU.MSVCFactor
	}
	return secondsToDuration(cyc / m.CPU.ClockHz)
}

// The modeled-2004 sample sort's shape. The host-native "samplesort" backend
// is a key-radix sort now (DESIGN.md §9); these constants stay here so the
// closed form — and EXPERIMENTS.md figure 3 — keep pricing the comparison
// sample sort of the 2004 testbed: k·sampleSortOversample evenly spaced
// samples, buckets of about sampleSortBucketLen values, at most
// sampleSortMaxBuckets of them, a direct quicksort below sampleSortMinN.
const (
	sampleSortMinN       = 2048
	sampleSortOversample = 8
	sampleSortMaxBuckets = 512
	sampleSortBucketLen  = 2048
)

// sampleSortBuckets returns the modeled bucket count for an n-element sort:
// the largest power of two k ≤ 512 with k·2048 ≤ n, or 1 below
// sampleSortMinN.
func sampleSortBuckets(n int) int {
	if n < sampleSortMinN {
		return 1
	}
	k := 2
	for k < sampleSortMaxBuckets && k*2*sampleSortBucketLen <= n {
		k <<= 1
	}
	return k
}

// SampleSortTime models a deterministic sample sort of n values on the
// Pentium IV: the splitter-sample quicksort, the fixed-depth branchless
// classification (exactly n·log2 k comparisons), and the per-bucket
// quicksorts under the balanced-bucket assumption (k buckets of n/k values
// each), all at the calibrated Intel-build comparison cost. The total is
// O(n log n) against PBSN's O(n log² n) comparator count, so this curve
// undercuts PBSNSortTime at large windows — the crossover the adaptive
// controller uses as its prior before live measurements arrive.
func (m Model) SampleSortTime(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	cmps := 1.386 * float64(n) * math.Log2(float64(n))
	if k := sampleSortBuckets(n); k >= 2 {
		sample := float64(k * sampleSortOversample)
		cmps = 1.386*sample*math.Log2(sample) +
			float64(n)*math.Log2(float64(k)) +
			1.386*float64(n)*math.Log2(float64(n)/float64(k))
	}
	return secondsToDuration(cmps * m.CPU.CyclesPerCmp / m.CPU.ClockHz)
}

// Backend selects how window sorting is costed in PipelineTime.
type Backend int

const (
	// BackendGPU sorts windows with the GPU PBSN sorter.
	BackendGPU Backend = iota
	// BackendCPU sorts windows with the Intel quicksort.
	BackendCPU
	// BackendSampleSort sorts windows with the deterministic CPU sample
	// sort (splitter selection, scatter, per-bucket quicksort).
	BackendSampleSort
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendCPU:
		return "cpu"
	case BackendSampleSort:
		return "samplesort"
	default:
		return "gpu"
	}
}

// PipelineBreakdown is the modeled cost of a summary-construction pipeline,
// decomposed into the paper's three operations (Figure 6).
type PipelineBreakdown struct {
	Sort     time.Duration
	Merge    time.Duration
	Compress time.Duration
}

// Total sums the components.
func (b PipelineBreakdown) Total() time.Duration { return b.Sort + b.Merge + b.Compress }

// OverlappedBreakdown is the modeled cost of the staged co-processing
// pipeline (the paper's execution model and the async executor's): the GPU
// sorts window i while the CPU merges and compresses window i-1, so per
// steady-state window only the slower stage contributes to the makespan. For
// a two-stage pipeline over W windows with per-window stage times s and m,
// the makespan is s + (W-1)*max(s,m) + m = max(S, M+C) + min(s, m): the
// totals of the dominant stage, plus one exposure of the non-dominant stage
// while the pipeline fills (or drains). Startup is that exposed fill cost.
type OverlappedBreakdown struct {
	PipelineBreakdown
	Startup time.Duration
}

// Total is the overlapped makespan: max(Sort, Merge+Compress) + Startup.
// Compare with the embedded PipelineBreakdown's additive Total (promoted
// methods are shadowed here) to see what co-processing hides.
func (b OverlappedBreakdown) Total() time.Duration {
	t := b.Sort
	if mc := b.Merge + b.Compress; mc > t {
		t = mc
	}
	return t + b.Startup
}

// Sequential is the additive makespan of the same work without overlap.
func (b OverlappedBreakdown) Sequential() time.Duration { return b.PipelineBreakdown.Total() }

// Speedup reports Sequential()/Total(); 1.0 when nothing overlaps.
func (b OverlappedBreakdown) Speedup() float64 {
	t := b.Total()
	if t == 0 {
		return 1
	}
	return float64(b.Sequential()) / float64(t)
}

// OverlappedPipelineTime models the same run as PipelineTime executed under
// the staged co-processing schedule: summary maintenance hides behind
// sorting (or vice versa when merge dominates), leaving the per-window
// minimum stage time exposed once as Startup.
func (m Model) OverlappedPipelineTime(c pipeline.Stats, backend Backend) OverlappedBreakdown {
	b := m.PipelineTime(c, backend)
	out := OverlappedBreakdown{PipelineBreakdown: b}
	if c.Windows > 0 {
		perSort := b.Sort / time.Duration(c.Windows)
		perMC := (b.Merge + b.Compress) / time.Duration(c.Windows)
		if perSort < perMC {
			out.Startup = perSort
		} else {
			out.Startup = perMC
		}
	}
	return out
}

// ShardedPipelineTime models a K-way sharded ingestion run from per-shard
// pipeline stats: shards ingest concurrently, so modeled ingest time is
// the slowest shard's pipeline, while the query-time merge of the K shard
// summaries is serial and costed at SummaryMergeCycles per visited entry.
func (m Model) ShardedPipelineTime(perShard []pipeline.Stats, backend Backend, queryMergeOps int64) PipelineBreakdown {
	var worst PipelineBreakdown
	for _, c := range perShard {
		b := m.PipelineTime(c, backend)
		if b.Total() > worst.Total() {
			worst = b
		}
	}
	worst.Merge += secondsToDuration(float64(queryMergeOps) * m.CPU.SummaryMergeCycles / m.CPU.ClockHz)
	return worst
}

// PipelineTime models a full frequency- or quantile-estimation run from the
// unified pipeline telemetry's operation counters (the measured durations in
// c are ignored — the model re-costs the counted work on the 2004 testbed).
func (m Model) PipelineTime(c pipeline.Stats, backend Backend) PipelineBreakdown {
	var sortTime time.Duration
	if c.Windows > 0 {
		avg := int(c.SortedValues / c.Windows)
		if avg < 2 {
			avg = 2
		}
		switch backend {
		case BackendGPU:
			sortTime = time.Duration(c.Windows) * m.PBSNSortTime(avg).Total()
		case BackendSampleSort:
			sortTime = time.Duration(c.Windows) * m.SampleSortTime(avg)
		default:
			sortTime = time.Duration(c.Windows) * m.QuicksortTime(avg, IntelHT)
		}
	}
	merge := secondsToDuration(float64(c.MergeOps) * m.CPU.SummaryMergeCycles / m.CPU.ClockHz)
	compress := secondsToDuration(float64(c.CompressOps) * m.CPU.CompressCycles / m.CPU.ClockHz)
	return PipelineBreakdown{Sort: sortTime, Merge: merge, Compress: compress}
}
