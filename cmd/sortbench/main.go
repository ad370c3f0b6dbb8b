// Command sortbench runs the sorting backends on a synthetic input and
// reports both host wall time (the simulator really sorts the data) and
// modeled time on the paper's 2004 testbed, with the GPU sort's cost
// decomposition (compute / transfer / setup / CPU merge).
//
// Usage:
//
//	sortbench [-n 1048576] [-dist uniform|zipf|sorted|reversed|gauss]
//	          [-seed 1] [-backends gpu,bitonic,cpu,cpu-ht,samplesort]
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
	"gpustream/internal/samplesort"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

func main() {
	n := flag.Int("n", 1<<20, "number of values to sort")
	dist := flag.String("dist", "uniform", "input distribution: uniform|zipf|sorted|reversed|gauss")
	seed := flag.Uint64("seed", 1, "generator seed")
	backends := flag.String("backends", "gpu,bitonic,cpu,cpu-ht,samplesort", "comma-separated sorting backends: gpu|gpu-bitonic|cpu|cpu-parallel|samplesort|auto (aliases: bitonic, cpu-ht)")
	flag.Parse()

	var data []float32
	switch *dist {
	case "uniform":
		data = stream.Uniform(*n, *seed)
	case "zipf":
		data = stream.Zipf(*n, 1.1, *n/10+1, *seed)
	case "sorted":
		data = stream.Sorted(*n)
	case "reversed":
		data = stream.ReverseSorted(*n)
	case "gauss":
		data = stream.Gaussian(*n, 0, 1, *seed)
	default:
		fmt.Fprintf(os.Stderr, "sortbench: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	model := perfmodel.Default()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "backend\thost-ms\tmodel-ms\tmodel-compute\tmodel-transfer\tsorted\t")

	var notes []string
	for _, name := range strings.Split(*backends, ",") {
		buf := append([]float32(nil), data...)
		var modelTotal, modelCompute, modelTransfer time.Duration
		backend, err := gpustream.ParseBackend(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			os.Exit(2)
		}
		var s sorter.Sorter[float32] = gpustream.New(backend).Sorter()
		t0 := time.Now()
		s.Sort(buf)
		host := time.Since(t0)

		switch g := s.(type) {
		case *gpusort.Sorter[float32]:
			st := g.LastStats()
			b := model.GPUSortFromStats(st.GPU, st.MergeCmps)
			modelTotal, modelCompute, modelTransfer = b.Total(), b.Compute, b.Transfer
		case *gpusort.BitonicSorter[float32]:
			st := g.LastStats()
			b := model.GPUSortFromStats(st.GPU, st.MergeCmps)
			modelTotal, modelCompute, modelTransfer = b.Total(), b.Compute, b.Transfer
		case cpusort.QuicksortSorter[float32]:
			modelTotal = model.QuicksortTime(*n, perfmodel.MSVC)
		case cpusort.ParallelSorter[float32]:
			modelTotal = model.QuicksortTime(*n, perfmodel.IntelHT)
		case *samplesort.Sorter[float32]:
			modelTotal = model.SampleSortTime(*n)
			st := g.LastStats()
			notes = append(notes, fmt.Sprintf(
				"samplesort: the host ran %d radix passes over %d keys (%d bytes scattered); model-ms prices the 2004 comparison sample sort",
				st.Passes, st.N, st.BytesMoved))
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%v\t\n",
			s.Name(),
			float64(host.Microseconds())/1000,
			float64(modelTotal.Microseconds())/1000,
			float64(modelCompute.Microseconds())/1000,
			float64(modelTransfer.Microseconds())/1000,
			cpusort.IsSorted(buf))
	}
	w.Flush()
	for _, note := range notes {
		fmt.Println(note)
	}
}
