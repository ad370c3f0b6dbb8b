package gpustream

// Benchmark harness: one family per table/figure in the paper's evaluation
// (Section 4.5 and Section 5), plus the design-choice ablations listed in
// DESIGN.md §5. Each figure bench measures real host wall time of the simulated
// pipeline and additionally reports the perfmodel's GeForce-6800/Pentium-IV
// time as a custom metric (model-ms), which is what reproduces the paper's
// absolute series; cmd/figures prints the full-scale tables.
//
// Sizes are kept moderate so `go test -bench=.` finishes in minutes; the
// cmd/figures tool sweeps to the paper's full 8M / 100M scales.

import (
	"fmt"
	"testing"
	"time"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/perfmodel"
	"gpustream/internal/sortnet"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

var benchSizes = []int{1 << 14, 1 << 16, 1 << 18}

// BenchmarkFig3Sort reproduces Figure 3: sorting time versus input size for
// the paper's GPU PBSN sorter, the prior GPU bitonic sorter, and the two CPU
// quicksort builds.
func BenchmarkFig3Sort(b *testing.B) {
	model := perfmodel.Default()
	for _, n := range benchSizes {
		data := stream.Uniform(n, uint64(n))
		b.Run(fmt.Sprintf("gpu-pbsn/n=%d", n), func(b *testing.B) {
			s := gpusort.NewSorter[float32]()
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				s.Sort(buf)
			}
			b.ReportMetric(float64(model.PBSNSortTime(n).Total().Microseconds())/1000, "model-ms")
		})
		b.Run(fmt.Sprintf("gpu-bitonic/n=%d", n), func(b *testing.B) {
			s := gpusort.NewBitonicSorter[float32]()
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				s.Sort(buf)
			}
			b.ReportMetric(float64(model.BitonicSortTime(n).Total().Microseconds())/1000, "model-ms")
		})
		b.Run(fmt.Sprintf("cpu-intel-ht/n=%d", n), func(b *testing.B) {
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				cpusort.ParallelQuicksort(buf, 2)
			}
			b.ReportMetric(float64(model.QuicksortTime(n, perfmodel.IntelHT).Microseconds())/1000, "model-ms")
		})
		b.Run(fmt.Sprintf("cpu-msvc/n=%d", n), func(b *testing.B) {
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				cpusort.Quicksort(buf)
			}
			b.ReportMetric(float64(model.QuicksortTime(n, perfmodel.MSVC).Microseconds())/1000, "model-ms")
		})
	}
}

// BenchmarkFig4Breakdown reproduces Figure 4: the GPU sort decomposed into
// computation and CPU<->GPU data-transfer time (reported as model metrics
// from the exact simulator counters of a real run).
func BenchmarkFig4Breakdown(b *testing.B) {
	model := perfmodel.Default()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := stream.Uniform(n, uint64(n))
			s := gpusort.NewSorter[float32]()
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				s.Sort(buf)
			}
			b.StopTimer()
			st := s.LastStats()
			bd := model.GPUSortFromStats(st.GPU, st.MergeCmps)
			b.ReportMetric(float64(bd.Compute.Microseconds())/1000, "model-compute-ms")
			b.ReportMetric(float64(bd.Transfer.Microseconds())/1000, "model-transfer-ms")
			b.ReportMetric(float64(bd.Merge.Microseconds())/1000, "model-merge-ms")
		})
	}
}

// benchPipeline drives a frequency or quantile pipeline over a fixed stream.
func benchPipeline(b *testing.B, backend Backend, run func(eng *Engine[float32], data []float32) (sortShare float64)) {
	data := stream.UniformInts(1<<18, 1<<20, 7)
	eng := New(backend)
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		share = run(eng, data)
	}
	b.ReportMetric(share*100, "sort-%")
}

// BenchmarkFig5Frequency reproduces Figure 5: frequency-estimation pipeline
// time, GPU versus CPU backend, across epsilon values.
func BenchmarkFig5Frequency(b *testing.B) {
	for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
		for _, backend := range []Backend{BackendGPU, BackendCPU} {
			b.Run(fmt.Sprintf("%v/eps=%g", backend, eps), func(b *testing.B) {
				benchPipeline(b, backend, func(eng *Engine[float32], data []float32) float64 {
					est := eng.NewFrequencyEstimator(eps)
					est.ProcessSlice(data)
					est.Flush()
					tm := est.Stats()
					if tm.Total() == 0 {
						return 0
					}
					return float64(tm.Sort) / float64(tm.Total())
				})
			})
		}
	}
}

// BenchmarkFig6SummaryOps reproduces Figure 6: the share of pipeline time
// spent in each summary operation (sort / merge / compress).
func BenchmarkFig6SummaryOps(b *testing.B) {
	for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			data := stream.UniformInts(1<<18, 1<<20, 8)
			eng := New(BackendCPU)
			b.ResetTimer()
			var sortP, mergeP, compP float64
			for i := 0; i < b.N; i++ {
				est := eng.NewFrequencyEstimator(eps)
				est.ProcessSlice(data)
				est.Flush()
				t := est.Stats()
				tot := float64(t.Total())
				if tot > 0 {
					sortP = 100 * float64(t.Sort) / tot
					mergeP = 100 * float64(t.Merge) / tot
					compP = 100 * float64(t.Compress) / tot
				}
			}
			b.ReportMetric(sortP, "sort-%")
			b.ReportMetric(mergeP, "merge-%")
			b.ReportMetric(compP, "compress-%")
		})
	}
}

// BenchmarkFig7Quantile reproduces Figure 7: quantile-estimation pipeline
// time, GPU versus CPU backend, across epsilon values, at the paper's 1/eps
// window rather than the estimator's default multiple of it.
func BenchmarkFig7Quantile(b *testing.B) {
	for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
		for _, backend := range []Backend{BackendGPU, BackendCPU} {
			b.Run(fmt.Sprintf("%v/eps=%g", backend, eps), func(b *testing.B) {
				benchPipeline(b, backend, func(eng *Engine[float32], data []float32) float64 {
					est := eng.NewQuantileEstimator(eps, WithSortWindow(int(1/eps)))
					est.ProcessSlice(data)
					_ = est.Query(0.5)
					tm := est.Stats()
					if tm.Total() == 0 {
						return 0
					}
					return float64(tm.Sort) / float64(tm.Total())
				})
			})
		}
	}
}

// BenchmarkFig8Sliding reproduces the Section 5.3 sliding-window experiment:
// pipeline time for frequency and quantile queries across window sizes.
func BenchmarkFig8Sliding(b *testing.B) {
	data := stream.Zipf(1<<18, 1.1, 1<<16, 9)
	for _, w := range []int{1 << 12, 1 << 14, 1 << 16} {
		for _, backend := range []Backend{BackendGPU, BackendCPU} {
			b.Run(fmt.Sprintf("freq/%v/w=%d", backend, w), func(b *testing.B) {
				eng := New(backend)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					est := eng.NewSlidingFrequency(0.01, w)
					est.ProcessSlice(data)
					_ = est.Query(0.05)
				}
			})
			b.Run(fmt.Sprintf("quant/%v/w=%d", backend, w), func(b *testing.B) {
				eng := New(backend)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					est := eng.NewSlidingQuantile(0.01, w)
					est.ProcessSlice(data)
					_ = est.Query(0.5)
				}
			})
		}
	}
}

// BenchmarkAblationChannels isolates the paper's 4-channel vector packing:
// the same PBSN sort with all data in one channel (no vector parallelism,
// 4x the texels) versus the 4-channel configuration.
func BenchmarkAblationChannels(b *testing.B) {
	n := 1 << 16
	data := stream.Uniform(n, 10)
	for _, ch := range []int{1, 4} {
		b.Run(fmt.Sprintf("channels=%d", ch), func(b *testing.B) {
			s := &gpusort.Sorter[float32]{ChannelsUsed: ch}
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				s.Sort(buf)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.LastStats().GPU.BlendOps), "blend-ops")
		})
	}
}

// BenchmarkAblationNetworks compares the PBSN and bitonic comparator
// schedules executed identically on the CPU, isolating the network choice
// from per-operation GPU costs.
func BenchmarkAblationNetworks(b *testing.B) {
	n := 1 << 14
	data := stream.Uniform(n, 11)
	nets := map[string]*sortnet.Network{
		"pbsn":    sortnet.PBSN(n),
		"bitonic": sortnet.Bitonic(n),
	}
	for name, net := range nets {
		b.Run(name, func(b *testing.B) {
			buf := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				sortnet.Apply(net, buf)
			}
			b.ReportMetric(float64(net.Comparators()), "comparators")
		})
	}
}

// BenchmarkAblationInsertion compares window-based summary construction
// against single-element GK insertion (the paper's Section 3.2 claim that
// window-based algorithms perform better in practice).
func BenchmarkAblationInsertion(b *testing.B) {
	data := stream.Uniform(1<<17, 12)
	const eps = 0.001
	b.Run("window-based", func(b *testing.B) {
		eng := New(BackendCPU)
		for i := 0; i < b.N; i++ {
			est := eng.NewQuantileEstimator(eps)
			est.ProcessSlice(data)
			_ = est.Query(0.5)
		}
	})
	b.Run("single-element", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := summary.NewGK[float32](eps)
			for _, v := range data {
				g.Insert(v)
			}
			_ = g.Query(0.5)
		}
	})
}

// BenchmarkAblationCompress sweeps the GK compress interval, trading summary
// memory for insert throughput.
func BenchmarkAblationCompress(b *testing.B) {
	data := stream.Uniform(1<<16, 13)
	for _, every := range []int64{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				g := summary.NewGKCompressEvery[float32](0.01, every)
				for _, v := range data {
					g.Insert(v)
				}
				size = g.Size()
			}
			b.ReportMetric(float64(size), "tuples")
		})
	}
}

// BenchmarkAblationRowBlocks compares the paper's full-height row-block
// quads (Figure 2 optimization) against naive per-row quads; fragments are
// identical, draw-call submissions differ.
func BenchmarkAblationRowBlocks(b *testing.B) {
	// Use the gpusort-level primitives directly on one texture shape.
	benchRowBlocks(b)
}

// BenchmarkAblationBatchSort quantifies the paper's Section 4.1 buffering
// of four windows into the RGBA channels: one GPU invocation for four
// windows versus four invocations, same total data.
func BenchmarkAblationBatchSort(b *testing.B) {
	const w = 1 << 14
	model := perfmodel.Default()
	mk := func() [][]float32 {
		out := make([][]float32, 4)
		for i := range out {
			out[i] = stream.Uniform(w, uint64(i+1))
		}
		return out
	}
	b.Run("batched-4-windows", func(b *testing.B) {
		s := gpusort.NewSorter[float32]()
		for i := 0; i < b.N; i++ {
			s.SortBatch(mk())
		}
		// One setup per 4 windows.
		b.ReportMetric(float64(model.GPU.SetupOverhead.Microseconds())/1000/4, "model-setup-ms/window")
	})
	b.Run("separate-windows", func(b *testing.B) {
		s := gpusort.NewSorter[float32]()
		for i := 0; i < b.N; i++ {
			for _, win := range mk() {
				s.Sort(win)
			}
		}
		b.ReportMetric(float64(model.GPU.SetupOverhead.Microseconds())/1000, "model-setup-ms/window")
	})
}

// BenchmarkPipelineSyncVsAsync measures end-to-end frequency and quantile
// ingest with synchronous emit versus the staged asynchronous executor, and
// reports the executor's measured overlap and ingest stall so the two
// schedules can be compared directly (paper Section 4.2: the GPU sorts
// window i while the CPU merges window i-1).
func BenchmarkPipelineSyncVsAsync(b *testing.B) {
	const n = 1 << 18
	data := stream.UniformInts(n, 1<<20, 11)
	for _, backend := range []Backend{BackendGPU, BackendCPU} {
		for _, mode := range []struct {
			name  string
			eopts []EstimatorOption
		}{
			{name: "sync"},
			{name: "async", eopts: []EstimatorOption{WithAsyncIngestion()}},
		} {
			b.Run(fmt.Sprintf("frequency/%v/%s", backend, mode.name), func(b *testing.B) {
				eng := New(backend)
				b.SetBytes(n * 4)
				b.ResetTimer()
				var st Stats
				for i := 0; i < b.N; i++ {
					est := eng.NewFrequencyEstimator(1e-4, mode.eopts...)
					est.ProcessSlice(data)
					est.Flush()
					st = est.Stats()
					est.Close()
				}
				b.ReportMetric(float64(st.Overlap.Microseconds())/1000, "overlap-ms")
				b.ReportMetric(float64(st.Stall.Microseconds())/1000, "stall-ms")
			})
			b.Run(fmt.Sprintf("quantile/%v/%s", backend, mode.name), func(b *testing.B) {
				eng := New(backend)
				b.SetBytes(n * 4)
				b.ResetTimer()
				var st Stats
				for i := 0; i < b.N; i++ {
					est := eng.NewQuantileEstimator(1e-3, mode.eopts...)
					est.ProcessSlice(data)
					_ = est.Query(0.5)
					st = est.Stats()
					est.Close()
				}
				b.ReportMetric(float64(st.Overlap.Microseconds())/1000, "overlap-ms")
				b.ReportMetric(float64(st.Stall.Microseconds())/1000, "stall-ms")
			})
		}
	}
}

// BenchmarkAsyncSmallCalls measures the async executors under small calls,
// where windows seal only every few calls, so the merge of the last sorted
// window falls between them. Each op makes a chunk of values (the caller's
// own work, outside the core lock) and ingests it with one ProcessSlice. The
// "mixed" schedule also asks one query every 16th op; "slow-caller" spends
// about 100 ns making each value, as a decoding service writer would.
// write-ns is the mean ProcessSlice, query-ns the mean query.
func BenchmarkAsyncSmallCalls(b *testing.B) {
	const chunk, queryEvery = 1000, 16
	eng := New(BackendCPU)
	arms := []struct {
		name  string
		build func() (ingest func([]float32) error, query func(), close func() error)
	}{
		{"frequency", func() (func([]float32) error, func(), func() error) {
			est := eng.NewFrequencyEstimator(1e-4, WithAsyncIngestion())
			return est.ProcessSlice, func() { _ = est.Estimate(7) }, est.Close
		}},
		{"quantile", func() (func([]float32) error, func(), func() error) {
			est := eng.NewQuantileEstimator(1e-3, WithAsyncIngestion())
			return est.ProcessSlice, func() { _ = est.Query(0.5) }, est.Close
		}},
		{"parallel-frequency", func() (func([]float32) error, func(), func() error) {
			est := eng.NewParallelFrequencyEstimator(1e-4, 2, WithAsyncIngestion(), WithBatchSize(chunk))
			return est.ProcessSlice, func() { _ = est.Estimate(7) }, est.Close
		}},
		{"parallel-quantile", func() (func([]float32) error, func(), func() error) {
			est := eng.NewParallelQuantileEstimator(1e-3, 2, WithAsyncIngestion(), WithBatchSize(chunk))
			return est.ProcessSlice, func() { _ = est.Query(0.5) }, est.Close
		}},
	}
	schedules := []struct {
		name   string
		rounds int // xorshift rounds per value made
		mixed  bool
	}{
		{"write", 1, false},
		{"mixed", 1, true},
		{"slow-caller", 64, false},
	}
	for _, arm := range arms {
		for _, sched := range schedules {
			b.Run(arm.name+"/"+sched.name, func(b *testing.B) {
				ingest, query, done := arm.build()
				defer done()
				buf := make([]float32, chunk)
				x := uint64(11)
				var write, read time.Duration
				queries := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range buf {
						for range sched.rounds {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
						}
						buf[j] = float32(x & (1<<20 - 1))
					}
					t0 := time.Now()
					if err := ingest(buf); err != nil {
						b.Fatal(err)
					}
					t1 := time.Now()
					write += t1.Sub(t0)
					if sched.mixed && i%queryEvery == queryEvery-1 {
						query()
						read += time.Since(t1)
						queries++
					}
				}
				b.ReportMetric(float64(write.Nanoseconds())/float64(b.N), "write-ns")
				if queries > 0 {
					b.ReportMetric(float64(read.Nanoseconds())/float64(queries), "query-ns")
				}
			})
		}
	}
}
