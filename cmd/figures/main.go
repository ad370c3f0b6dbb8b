// Command figures regenerates every table and figure of the paper's
// evaluation (Figures 3-7 and the Section 5.3 sliding-window experiment).
//
// For each figure it prints the same series the paper plots. Two kinds of
// numbers appear:
//
//   - model: time on the paper's testbed (GeForce 6800 Ultra + 3.4 GHz
//     Pentium IV + AGP 8X) predicted by the perfmodel from exact operation
//     counts. These are the columns to compare against the paper's plots.
//   - host: wall time measured on this machine while actually executing the
//     pipelines against the GPU simulator, at a reduced scale (the simulator
//     is faithful, not fast). Reported for transparency.
//
// Usage:
//
//	figures [-fig N] [-scale M] [-measure]
//
//	-fig 0      regenerate all figures (default)
//	-scale      stream scale divisor for measured runs (default 50:
//	            100M-element experiments run on 2M elements)
//	-measure    also run host measurements where they are slow (Fig 3/4
//	            measured columns at the largest sizes)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"gpustream"
	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/perfmodel"
	"gpustream/internal/stream"
)

const paperStream = 100_000_000 // the paper's 100M-element streams

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (3-10; 9 = growth projection, 10 = sustained throughput), 0 = all")
	scale := flag.Int("scale", 50, "divisor applied to the paper's 100M stream for measured runs")
	measure := flag.Bool("measure", false, "run slow host measurements too")
	async := flag.Bool("async", false, "run host measurements with staged asynchronous ingestion and report measured overlap")
	backendsFlag := flag.String("backends", "gpu,cpu,samplesort", "comma-separated sorting backends for the measured sliding-window runs: gpu|gpu-bitonic|cpu|cpu-parallel|samplesort|auto")
	flag.Parse()

	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "figures: -scale must be >= 1")
		os.Exit(2)
	}
	var backends []gpustream.Backend
	for _, name := range strings.Split(*backendsFlag, ",") {
		b, err := gpustream.ParseBackend(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(2)
		}
		backends = append(backends, b)
	}
	run := func(n int) bool { return *fig == 0 || *fig == n }
	if run(3) {
		figure3(*measure)
	}
	if run(4) {
		figure4()
	}
	if run(5) {
		figure5(*scale, *async)
	}
	if run(6) {
		figure6(*scale)
	}
	if run(7) {
		figure7(*scale, *async)
	}
	if run(8) {
		figure8(*scale, backends, *async)
	}
	if run(9) {
		figure9()
	}
	if run(10) {
		figure10(*scale, *async)
	}
}

func newTable(header string) *tabwriter.Writer {
	fmt.Println(header)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
func sec(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// figure3 prints sorting time versus input size for the five sorters,
// including the O(n log n) sample sort whose modeled curve crosses the
// PBSN's O(n log^2 n) one as n grows.
func figure3(measure bool) {
	model := perfmodel.Default()
	fmt.Println("== Figure 3: sorting time vs n (model ms on 2004 testbed) ==")
	w := newTable("   our GPU PBSN vs prior GPU bitonic vs CPU quicksorts vs sample sort")
	fmt.Fprintln(w, "n\tgpu-pbsn\tgpu-bitonic\tcpu-intel-ht\tcpu-msvc\tsamplesort\tbitonic/pbsn\tpbsn/samplesort\t")
	for n := 16 << 10; n <= 8<<20; n <<= 1 {
		pbsn := model.PBSNSortTime(n).Total()
		bit := model.BitonicSortTime(n).Total()
		intel := model.QuicksortTime(n, perfmodel.IntelHT)
		msvc := model.QuicksortTime(n, perfmodel.MSVC)
		smp := model.SampleSortTime(n)
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%.1fx\t%.1fx\t\n",
			n, ms(pbsn), ms(bit), ms(intel), ms(msvc), ms(smp),
			float64(bit)/float64(pbsn), float64(pbsn)/float64(smp))
	}
	w.Flush()

	if measure {
		fmt.Println("   host wall time (simulator executes the real routines; reduced sizes)")
		w = newTable("")
		fmt.Fprintln(w, "n\tgpu-pbsn-sim\tcpu-quicksort\tcpu-quicksort-ht\t")
		for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
			data := stream.Uniform(n, uint64(n))
			buf := make([]float32, n)

			s := gpusort.NewSorter[float32]()
			copy(buf, data)
			t0 := time.Now()
			s.Sort(buf)
			gpuT := time.Since(t0)

			copy(buf, data)
			t0 = time.Now()
			cpusort.Quicksort(buf)
			cpuT := time.Since(t0)

			copy(buf, data)
			t0 = time.Now()
			cpusort.ParallelQuicksort(buf, 2)
			htT := time.Since(t0)

			fmt.Fprintf(w, "%d\t%s\t%s\t%s\t\n", n, ms(gpuT), ms(cpuT), ms(htT))
		}
		w.Flush()
	}
	fmt.Println()
}

// figure4 prints the GPU sort decomposition and the O(n log^2 n) estimate
// anchored at 8M, as the paper's Figure 4 does.
func figure4() {
	model := perfmodel.Default()
	fmt.Println("== Figure 4: GPU sort breakdown (model ms) and O(n log^2 n) scaling check ==")
	w := newTable("")
	fmt.Fprintln(w, "n\tcompute\ttransfer\tsetup\tcpu-merge\ttotal\testimate-from-8M\t")
	anchorN := 8 << 20
	anchor := model.PBSNSortTime(anchorN)
	cost := func(n int) float64 {
		l := 0.0
		for v := 1; v < n/4; v <<= 1 {
			l++
		}
		return float64(n) * l * l
	}
	for n := 16 << 10; n <= 8<<20; n <<= 1 {
		b := model.PBSNSortTime(n)
		est := time.Duration(float64(anchor.Compute) * cost(n) / cost(anchorN))
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			n, ms(b.Compute), ms(b.Transfer), ms(b.Setup), ms(b.Merge), ms(b.Total()), ms(est))
	}
	w.Flush()
	fmt.Println("   (transfer stays far below compute: the CPU<->GPU bus is not the bottleneck)")
	fmt.Println()
}

// measureCounts runs a frequency or quantile pipeline at reduced scale on
// the (fast) CPU backend and extrapolates its operation counts to the
// paper's 100M-element stream. The counters are backend-independent, so one
// measured run feeds both the GPU and CPU cost models — additive and
// overlapped alike. The measured host wall clock and staged-executor overlap
// (nonzero only with async) are returned unscaled.
func measureCounts(eps float64, scale int, quantile, async bool) (gpustream.Stats, time.Duration) {
	n := paperStream / scale
	if minN := int(4 / eps); n < minN {
		n = minN // keep at least a few windows at tiny eps
	}
	data := stream.UniformInts(n, 1<<22, uint64(n))
	eng := gpustream.New(gpustream.BackendCPU)
	var eopts []gpustream.EstimatorOption
	if async {
		eopts = append(eopts, gpustream.WithAsyncIngestion())
	}

	var counts gpustream.Stats
	var hostTime time.Duration
	if quantile {
		// The paper's window, 1/eps, not the estimator's default multiple
		// of it: these counts feed the 2004 cost model of Figure 7.
		eopts = append(eopts, gpustream.WithSortWindow(int(1/eps)))
		est := eng.NewQuantileEstimator(eps, eopts...)
		t0 := time.Now()
		est.ProcessSlice(data)
		_ = est.Query(0.5)
		hostTime = time.Since(t0)
		counts = est.Stats()
		est.Close()
	} else {
		est := eng.NewFrequencyEstimator(eps, eopts...)
		t0 := time.Now()
		est.ProcessSlice(data)
		est.Flush()
		hostTime = time.Since(t0)
		counts = est.Stats()
		est.Close()
	}
	// Counts scale linearly with stream length; the measured durations
	// (including Overlap/Stall) are left at host scale.
	factor := float64(paperStream) / float64(n)
	counts.Windows = int64(float64(counts.Windows) * factor)
	counts.SortedValues = int64(float64(counts.SortedValues) * factor)
	counts.MergeOps = int64(float64(counts.MergeOps) * factor)
	counts.CompressOps = int64(float64(counts.CompressOps) * factor)
	return counts, hostTime
}

// figure5 prints frequency-estimation pipeline time, GPU vs CPU, across eps.
// gpu-async is the overlapped closed form: merge/compress hidden behind the
// sort stage, the paper's co-processing schedule.
func figure5(scale int, async bool) {
	fmt.Println("== Figure 5: frequency estimation over a 100M stream (model s on 2004 testbed) ==")
	model := perfmodel.Default()
	w := newTable("")
	fmt.Fprintln(w, "eps\twindow\tgpu-total\tgpu-async\tcpu-total\tgpu/cpu\thost-ms(cpu,scaled)\thost-overlap-ms\t")
	for _, eps := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
		counts, host := measureCounts(eps, scale, false, async)
		cpuSide := model.PipelineTime(counts, perfmodel.BackendCPU)
		gpuSide := model.PipelineTime(counts, perfmodel.BackendGPU)
		gpuOv := model.OverlappedPipelineTime(counts, perfmodel.BackendGPU)
		fmt.Fprintf(w, "%g\t%d\t%s\t%s\t%s\t%.2fx\t%s\t%s\t\n",
			eps, int(1/eps), sec(gpuSide.Total()), sec(gpuOv.Total()), sec(cpuSide.Total()),
			float64(gpuSide.Total())/float64(cpuSide.Total()), ms(host), ms(counts.Overlap))
	}
	w.Flush()
	fmt.Println("   (GPU wins at large windows / small eps; per-sort setup dominates tiny windows;")
	fmt.Println("    gpu-async hides merge+compress behind sorting, the paper's co-processing claim)")
	fmt.Println()
}

// figure6 prints the per-operation cost breakdown of the frequency summary.
func figure6(scale int) {
	fmt.Println("== Figure 6: cost of summary operations (measured host shares, CPU backend) ==")
	w := newTable("")
	fmt.Fprintln(w, "eps\twindow\tsort%\tmerge%\tcompress%\thost-total-ms\t")
	for _, eps := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
		n := paperStream / scale
		if minN := int(4 / eps); n < minN {
			n = minN
		}
		data := stream.UniformInts(n, 1<<22, uint64(n))
		est := gpustream.New(gpustream.BackendCPU).NewFrequencyEstimator(eps)
		est.ProcessSlice(data)
		est.Flush()
		t := est.Stats()
		tot := float64(t.Total())
		fmt.Fprintf(w, "%g\t%d\t%.0f\t%.0f\t%.0f\t%s\t\n",
			eps, est.WindowSize(),
			100*float64(t.Sort)/tot, 100*float64(t.Merge)/tot, 100*float64(t.Compress)/tot,
			ms(t.Total()))
	}
	w.Flush()
	fmt.Println("   (sorting dominates, as in the paper's 70-95% claim)")
	fmt.Println()
}

// figure7 prints quantile-estimation pipeline time, GPU vs CPU, across eps.
func figure7(scale int, async bool) {
	fmt.Println("== Figure 7: quantile estimation over a 100M stream (model s on 2004 testbed) ==")
	model := perfmodel.Default()
	w := newTable("")
	fmt.Fprintln(w, "eps\twindow\tgpu-total\tgpu-async\tcpu-total\tgpu/cpu\thost-ms(cpu,scaled)\thost-overlap-ms\t")
	for _, eps := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
		counts, host := measureCounts(eps, scale, true, async)
		cpuSide := model.PipelineTime(counts, perfmodel.BackendCPU)
		gpuSide := model.PipelineTime(counts, perfmodel.BackendGPU)
		gpuOv := model.OverlappedPipelineTime(counts, perfmodel.BackendGPU)
		fmt.Fprintf(w, "%g\t%d\t%s\t%s\t%s\t%.2fx\t%s\t%s\t\n",
			eps, int(1/eps), sec(gpuSide.Total()), sec(gpuOv.Total()), sec(cpuSide.Total()),
			float64(gpuSide.Total())/float64(cpuSide.Total()), ms(host), ms(counts.Overlap))
	}
	w.Flush()
	fmt.Println("   (GPU comparable to CPU; CPU ahead at small windows that fit its L2 cache)")
	fmt.Println()
}

// figure8 prints the sliding-window experiment (Section 5.3).
func figure8(scale int, backends []gpustream.Backend, async bool) {
	fmt.Println("== Section 5.3: sliding-window queries (measured host ms at reduced scale) ==")
	n := paperStream / (scale * 10)
	if n < 1<<20 {
		n = 1 << 20
	}
	data := stream.Zipf(n, 1.1, 1<<18, 77)
	var eopts []gpustream.EstimatorOption
	if async {
		eopts = append(eopts, gpustream.WithAsyncIngestion())
	}
	w := newTable("")
	fmt.Fprintln(w, "window\tquery\tbackend\thost-ms\toverlap-ms\tsorted-values\t")
	for _, win := range []int{100_000, 400_000, 1_600_000} {
		if win > n {
			continue
		}
		for _, backend := range backends {
			eng := gpustream.New(backend)
			sf := eng.NewSlidingFrequency(0.001, win, eopts...)
			t0 := time.Now()
			sf.ProcessSlice(data)
			_ = sf.Query(0.01)
			fT := time.Since(t0)
			fmt.Fprintf(w, "%d\tfrequency\t%v\t%s\t%s\t%d\t\n",
				win, backend, ms(fT), ms(sf.Stats().Overlap), sf.SortedValues())
			sf.Close()

			sq := eng.NewSlidingQuantile(0.001, win, eopts...)
			t0 = time.Now()
			sq.ProcessSlice(data)
			_ = sq.Query(0.5)
			qT := time.Since(t0)
			fmt.Fprintf(w, "%d\tquantile\t%v\t%s\t%s\t%d\t\n",
				win, backend, ms(qT), ms(sq.Stats().Overlap), sq.SortedValues())
			sq.Close()
		}
	}
	w.Flush()
	fmt.Println("   (per-pane sorting again dominates; larger windows favor the GPU backend)")
	fmt.Println()
}

// figure9 prints the Section 4.5 projection: GPU performance grows 2-3x a
// year versus Moore's-law CPUs, so the sorting gap widens over future
// hardware generations.
func figure9() {
	fmt.Println("== Section 4.5 projection: GPU vs CPU sorting gap over future generations ==")
	base := perfmodel.Default()
	rates := perfmodel.PaperGrowthRates()
	n := 8 << 20
	w := newTable("")
	fmt.Fprintln(w, "years-after-2005\tgpu-pbsn-ms\tcpu-intel-ms\tcpu/gpu\t")
	for _, years := range []float64{0, 1, 2, 3, 4, 5} {
		m := base.Project(years, rates)
		gpu := m.PBSNSortTime(n).Total()
		cpu := m.QuicksortTime(n, perfmodel.IntelHT)
		fmt.Fprintf(w, "%.0f\t%s\t%s\t%.1fx\t\n", years, ms(gpu), ms(cpu), float64(cpu)/float64(gpu))
	}
	w.Flush()
	fmt.Println("   (assumes GPU 2.0x/yr, CPU 1.5x/yr, bus 1.3x/yr; paper quotes GPUs at 2-3x/yr)")
	fmt.Println()
}

// figure10 answers the introduction's motivating question — can the system
// keep up with the stream's update rate? — as sustained throughput
// (million elements/second on the 2004 testbed) of the frequency pipeline
// per backend and epsilon.
func figure10(scale int, async bool) {
	fmt.Println("== Throughput: sustained stream rate (model M elements/s, 2004 testbed) ==")
	model := perfmodel.Default()
	w := newTable("")
	fmt.Fprintln(w, "eps\twindow\tgpu-Melem/s\tgpu-async-Melem/s\tcpu-Melem/s\tasync-speedup\t")
	rate := func(total time.Duration) float64 {
		if total <= 0 {
			return 0
		}
		return paperStream / total.Seconds() / 1e6
	}
	for _, eps := range []float64{1e-3, 1e-4, 1e-5, 1e-6} {
		counts, _ := measureCounts(eps, scale, false, async)
		cpuSide := model.PipelineTime(counts, perfmodel.BackendCPU)
		gpuSide := model.PipelineTime(counts, perfmodel.BackendGPU)
		gpuOv := model.OverlappedPipelineTime(counts, perfmodel.BackendGPU)
		fmt.Fprintf(w, "%g\t%d\t%.1f\t%.1f\t%.1f\t%.2fx\t\n", eps, int(1/eps),
			rate(gpuSide.Total()), rate(gpuOv.Total()), rate(cpuSide.Total()), gpuOv.Speedup())
	}
	w.Flush()
	fmt.Println("   (the co-processor keeps the DSMS ahead of gigabit-class update rates at realistic eps;")
	fmt.Println("    gpu-async is the overlapped schedule — sort hides merge/compress, Section 4.2)")
	fmt.Println()
}
