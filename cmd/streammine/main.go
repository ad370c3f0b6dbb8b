// Command streammine runs epsilon-approximate stream-mining queries over a
// synthetic data stream, exercising the full public API: frequency and
// quantile estimation over the whole history or over a sliding window, on
// any sorting backend.
//
// Usage:
//
//	streammine -query frequency -n 10000000 -eps 0.0001 -support 0.001
//	streammine -query quantile  -n 10000000 -eps 0.001 -phis 0.25,0.5,0.75
//	streammine -query frequency -window 100000 ...   (sliding window)
//	streammine -keyed -n 10000000 -keys 100000 ...    (per-key quantiles over a
//	                                                   zipf-keyed stream: frugal
//	                                                   tier + promoted GK tier)
//	streammine -backend cpu ...                       (default samplesort)
//	streammine -shards 4 ...                          (parallel ingestion;
//	                                                   -shards -1 = GOMAXPROCS)
//	streammine -shards auto ...                       (elastic: a runtime scaler
//	                                                   hill-climbs the count)
//	streammine -async ...                             (staged co-processing:
//	                                                   sort overlaps merge)
//	streammine -async=auto ...                        (elastic: the adaptive
//	                                                   controller owns the mode;
//	                                                   note the =, -async alone
//	                                                   means on)
//	streammine -stats ...                             (per-stage pipeline report)
//	streammine -snapshot part.snap ...                (write the final snapshot
//	                                                   in the wire format; fan
//	                                                   in with snapmerge)
//	streammine -cpuprofile cpu.pb -memprofile mem.pb -trace run.trace ...
//	                                                  (pprof / runtime-trace;
//	                                                   `go tool trace run.trace`
//	                                                   shows the stage overlap)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"gpustream"
	"gpustream/internal/perfmodel"
	"gpustream/internal/stream"
)

func main() {
	query := flag.String("query", "frequency", "query type: frequency|quantile")
	n := flag.Int("n", 1_000_000, "stream length")
	eps := flag.Float64("eps", 0.001, "approximation error")
	support := flag.Float64("support", 0.01, "frequency query support threshold")
	phis := flag.String("phis", "0.01,0.25,0.5,0.75,0.99", "quantile probes")
	dist := flag.String("dist", "zipf", "stream distribution: zipf|uniform|gauss|bursty")
	var backend gpustream.Backend // the default is the zero value, as in a Spec that names none
	flag.TextVar(&backend, "backend", backend, "sorting backend: samplesort|gpu|gpu-bitonic|cpu|cpu-parallel|auto")
	windowSize := flag.Int("window", 0, "sliding window size (0 = whole stream)")
	keyed := flag.Bool("keyed", false, "keyed estimation: per-key quantiles over a zipf-keyed stream (uint64 keys)")
	nkeys := flag.Int("keys", 0, "keyed: key-space cardinality (0 = n/1000+10)")
	keySkew := flag.Float64("keyskew", 1.2, "keyed: zipf skew of the key distribution")
	var shards shardsFlag
	flag.Var(&shards, "shards", "parallel ingestion shards (0 = serial, <0 = GOMAXPROCS, auto = elastic runtime scaling)")
	var async asyncFlag
	flag.Var(&async, "async", "staged asynchronous ingestion, overlapping window sorting with merge/compress: on|off|auto (auto lets the adaptive controller own the mode)")
	seed := flag.Uint64("seed", 1, "generator seed")
	replayPath := flag.String("replay", "", "replay this trace file instead of generating")
	top := flag.Int("top", 10, "max frequency items to print")
	snapPath := flag.String("snapshot", "", "write the final snapshot in the binary wire format to this file (fan in with snapmerge)")
	showStats := flag.Bool("stats", false, "print the per-stage pipeline telemetry report")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	tracefile := flag.String("trace", "", "write a runtime/trace execution trace to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := trace.Start(f); err != nil {
			fatalf("trace: %v", err)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "streammine: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "streammine: memprofile: %v\n", err)
			}
		}()
	}

	var data []float32
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		data, err = stream.ReadTrace(f)
		if err != nil {
			fatalf("%v", err)
		}
		*n = len(data)
		*dist = "trace:" + *replayPath
	} else {
		data = generate(*dist, *n, *seed)
	}

	eng := gpustream.New(backend)
	mode := "sync"
	switch async.mode {
	case gpustream.AsyncOn:
		mode = "async"
	case gpustream.AsyncAuto:
		mode = "elastic (async auto)"
	}
	fmt.Printf("stream: %d %s values, eps=%g, backend=%v, %s ingestion\n", *n, *dist, *eps, backend, mode)

	if shards.parallel() && *windowSize > 0 {
		fatalf("-shards does not combine with -window (sliding estimators are serial)")
	}
	if *keyed && (*windowSize > 0 || shards.parallel() || async.mode != gpustream.AsyncOff) {
		fatalf("-keyed does not combine with -window, -shards, or -async (the keyed front-end is serial; only its heavy-hitter oracle runs a sorting pipeline)")
	}

	start := time.Now()
	if *keyed {
		runKeyed(eng, data, *nkeys, *keySkew, *eps, *support, *seed, parsePhis(*phis), *top, *snapPath, start)
	} else {
		runSpec(eng, backend, data, *query, *eps, *support, parsePhis(*phis), *windowSize, shards, async.mode, *top, *snapPath, start)
	}

	if *showStats {
		printStats(eng.Stats())
	}

	if b, ok := eng.LastSortBreakdown(); ok {
		fmt.Printf("last GPU sort (modeled 2004 testbed): compute %v, transfer %v, setup %v, merge %v\n",
			b.Compute, b.Transfer, b.Setup, b.Merge)
	}
}

// shardsFlag parses -shards: an integer count (0 = serial, <0 = GOMAXPROCS)
// or "auto" for elastic runtime scaling.
type shardsFlag struct {
	auto bool
	n    int
}

func (f *shardsFlag) String() string {
	if f.auto {
		return "auto"
	}
	return strconv.Itoa(f.n)
}

func (f *shardsFlag) Set(s string) error {
	if strings.EqualFold(strings.TrimSpace(s), "auto") {
		f.auto, f.n = true, 0
		return nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return fmt.Errorf("bad shard count %q (want an integer or auto)", s)
	}
	f.auto, f.n = false, n
	return nil
}

// parallel reports whether the flag selects a parallel family at all.
func (f *shardsFlag) parallel() bool { return f.auto || f.n != 0 }

// asyncFlag parses -async as a boolean flag (bare -async means on) that also
// accepts "auto" for controller-owned mode selection.
type asyncFlag struct {
	mode gpustream.AsyncMode
}

func (f *asyncFlag) String() string { return f.mode.String() }

func (f *asyncFlag) Set(s string) error {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "true", "on", "1":
		f.mode = gpustream.AsyncOn
	case "false", "off", "0":
		f.mode = gpustream.AsyncOff
	case "auto":
		f.mode = gpustream.AsyncAuto
	default:
		return fmt.Errorf("bad async mode %q (want on, off, or auto)", s)
	}
	return nil
}

// IsBoolFlag keeps the historical bare `-async` form working.
func (f *asyncFlag) IsBoolFlag() bool { return true }

// specFor maps the flag surface onto the declarative estimator spec — the
// same description a streamd tenant would PUT, so the CLI and the service
// construct identical estimators.
func specFor(query string, backend gpustream.Backend, eps float64, windowSize int, shards shardsFlag, async gpustream.AsyncMode) (gpustream.Spec, error) {
	spec := gpustream.Spec{Eps: eps, Backend: backend, Async: async}
	switch query {
	case "frequency":
		switch {
		case shards.parallel():
			spec.Family = gpustream.FamilyParallelFrequency
		case windowSize > 0:
			spec.Family = gpustream.FamilySlidingFrequency
		default:
			spec.Family = gpustream.FamilyFrequency
		}
	case "quantile":
		switch {
		case shards.parallel():
			spec.Family = gpustream.FamilyParallelQuantile
		case windowSize > 0:
			spec.Family = gpustream.FamilySlidingQuantile
		default:
			spec.Family = gpustream.FamilyQuantile
		}
	default:
		return spec, fmt.Errorf("unknown query %q", query)
	}
	if spec.Family.Sliding() {
		spec.Window = windowSize
	}
	if spec.Family.Parallel() {
		switch {
		case shards.auto:
			spec.Shards = gpustream.ShardsAuto
		case shards.n > 0:
			spec.Shards = gpustream.ShardCount(shards.n) // <0 stays 0 in the spec: GOMAXPROCS
		}
	}
	return spec, spec.Validate()
}

// runSpec builds the estimator described by the flags via the declarative
// spec path, ingests the stream, and answers the query from the final
// snapshot view. Family-specific reporting (shard breakdowns, phase times)
// is recovered by interface assertion rather than concrete types.
func runSpec(eng *gpustream.Engine[float32], backend gpustream.Backend, data []float32, query string, eps, support float64, probes []float64, windowSize int, shards shardsFlag, async gpustream.AsyncMode, top int, snapPath string, start time.Time) {
	spec, err := specFor(query, backend, eps, windowSize, shards, async)
	if err != nil {
		fatalf("%v", err)
	}
	est, err := eng.NewFromSpec(spec)
	if err != nil {
		fatalf("%v", err)
	}
	if err := est.ProcessSlice(data); err != nil {
		fatalf("%v", err)
	}
	if err := est.Close(); err != nil {
		fatalf("%v", err)
	}
	snap := est.Snapshot()

	scope := "whole stream"
	if spec.Family.Sliding() {
		scope = fmt.Sprintf("last %d elements", windowSize)
	}
	switch query {
	case "frequency":
		items, _ := snap.HeavyHitters(support)
		fmt.Printf("processed in %v; %d summary entries; heavy hitters over %s (support %g):\n",
			time.Since(start), snap.Size(), scope, support)
		printItems(items, top)
	case "quantile":
		fmt.Printf("processed in %v; %d summary entries; quantiles over %s:\n",
			time.Since(start), snap.Size(), scope)
		for _, phi := range probes {
			v, _ := snap.Quantile(phi)
			fmt.Printf("  phi=%.3f -> %v\n", phi, v)
		}
	}

	type sharded interface {
		Shards() int
		ModeledTime(perfmodel.Model, perfmodel.Backend) perfmodel.PipelineBreakdown
	}
	if sh, ok := est.(sharded); ok {
		printSharded(sh.ModeledTime(eng.Model(), backend.PipelineBackend()), sh.Shards())
	} else if !spec.Family.Sliding() {
		printPhases(est.Stats())
	}
	writeSnapshot(snapPath, est)
}

// runKeyed drives the keyed front-end: values from the configured value
// distribution paired with zipf-distributed uint64 keys, so the heavy head
// of the key space promotes to dedicated GK summaries while the long tail
// stays in the pooled frugal tier.
func runKeyed(eng *gpustream.Engine[float32], vals []float32, nkeys int, skew, eps, support float64, seed uint64, probes []float64, top int, snapPath string, start time.Time) {
	n := len(vals)
	if nkeys <= 0 {
		nkeys = n/1000 + 10
	}
	keys := stream.ZipfOf[uint64](n, skew, nkeys, seed+1)
	ke := gpustream.NewKeyedEstimator[uint64](eng, eps, support, gpustream.WithKeyedSeed(seed))
	if err := ke.ProcessSlice(keys, vals); err != nil {
		fatalf("%v", err)
	}
	if err := ke.Flush(); err != nil {
		fatalf("%v", err)
	}
	st := ke.TierStats()
	fmt.Printf("processed %d keyed observations in %v; %d distinct keys (skew %g over %d)\n",
		n, time.Since(start), st.Keys, skew, nkeys)
	fmt.Printf("tiers: %d frugal, %d promoted; %d promotions, rate %.4f\n",
		st.FrugalKeys, st.PromotedKeys, st.Promotions, st.PromotionRate)
	heavy := ke.HeavyKeys(support)
	fmt.Printf("heavy keys (support %g):\n", support)
	for i, it := range heavy {
		if i >= top {
			fmt.Printf("  ... and %d more\n", len(heavy)-top)
			break
		}
		fmt.Printf("  key %d: freq >= %d, quantiles", it.Value, it.Freq)
		for _, phi := range probes {
			if v, ok := ke.Quantile(it.Value, phi); ok {
				fmt.Printf(" %.3f->%v", phi, v)
			}
		}
		fmt.Println()
	}
	if snapPath != "" {
		blob, err := gpustream.MarshalKeyedSnapshot(ke.Snapshot())
		if err != nil {
			fatalf("snapshot: %v", err)
		}
		if err := os.WriteFile(snapPath, blob, 0o644); err != nil {
			fatalf("snapshot: %v", err)
		}
		fmt.Printf("snapshot: wrote %d bytes to %s (keyed family; merge with snapmerge -keytype uint64)\n", len(blob), snapPath)
	}
}

// writeSnapshot marshals est's final snapshot in the binary wire format to
// path, so a downstream snapmerge (or any process) can merge it with other
// partitions' snapshots. No-op when path is empty.
func writeSnapshot(path string, est gpustream.Estimator[float32]) {
	if path == "" {
		return
	}
	blob, err := gpustream.MarshalSnapshot(est.Snapshot())
	if err != nil {
		fatalf("snapshot: %v", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fatalf("snapshot: %v", err)
	}
	fmt.Printf("snapshot: wrote %d bytes to %s\n", len(blob), path)
}

func generate(dist string, n int, seed uint64) []float32 {
	switch dist {
	case "zipf":
		return stream.Zipf(n, 1.1, n/100+10, seed)
	case "uniform":
		return stream.Uniform(n, seed)
	case "gauss":
		return stream.Gaussian(n, 0, 1, seed)
	case "bursty":
		return stream.Bursty(n, n/100+10, 1000, 0.001, seed)
	}
	fatalf("unknown distribution %q", dist)
	return nil
}

func printItems(items []gpustream.Item[float32], top int) {
	for i, it := range items {
		if i >= top {
			fmt.Printf("  ... and %d more\n", len(items)-top)
			return
		}
		fmt.Printf("  value %v: freq >= %d\n", it.Value, it.Freq)
	}
}

func printSharded(bd perfmodel.PipelineBreakdown, shards int) {
	fmt.Printf("modeled %d-shard pipeline (2004 testbed): sort %v, merge %v, compress %v\n",
		shards, bd.Sort, bd.Merge, bd.Compress)
}

// printPhases is the one-line phase report of the serial estimators,
// extended with the measured co-processing overlap when the staged executor
// ran.
func printPhases(t gpustream.Stats) {
	fmt.Printf("phase time: sort %v, merge %v, compress %v", t.Sort, t.Merge, t.Compress)
	if t.Overlap > 0 || t.Stall > 0 {
		fmt.Printf(", overlap %v, stall %v", t.Overlap, t.Stall)
	}
	fmt.Println()
}

// printStats reports the unified per-stage telemetry of every estimator the
// engine created, one line of counters and one of measured wall clock each.
func printStats(all []gpustream.EstimatorStats) {
	fmt.Println("pipeline stats (measured host time):")
	for _, es := range all {
		st := es.Stats
		fmt.Printf("  %-18s windows=%d sorted=%d mergeOps=%d compressOps=%d\n",
			es.Kind, st.Windows, st.SortedValues, st.MergeOps, st.CompressOps)
		fmt.Printf("  %-18s sort=%v merge=%v compress=%v idle=%v total=%v\n",
			"", st.Sort, st.Merge, st.Compress, st.Idle, st.Total())
		if st.Overlap > 0 || st.Stall > 0 || st.MaxInFlight > 0 {
			fmt.Printf("  %-18s overlap=%v stall=%v maxInFlight=%d\n",
				"", st.Overlap, st.Stall, st.MaxInFlight)
		}
		if es.Backend != "" {
			mode := "sync"
			if es.Async {
				mode = "async"
			}
			fmt.Printf("  %-18s backend=%s window=%d mode=%s", "", es.Backend, es.Window, mode)
			if es.Shards > 0 {
				fmt.Printf(" shards=%d", es.Shards)
			}
			fmt.Println()
		}
		if es.Tuning != nil {
			d := es.Tuning
			fmt.Printf("  %-18s tuning: phase=%s selected=%s window=%d switches=%d",
				"", d.Phase, d.Backend, d.Window, d.Switches)
			if d.Async != "" {
				fmt.Printf(" mode=%s", d.Async)
			}
			if d.ShardPhase != "" {
				fmt.Printf(" shards=%d shardPhase=%s rescales=%d", d.Shards, d.ShardPhase, d.Rescales)
			}
			fmt.Println()
		}
		if es.Keyed != nil {
			k := es.Keyed
			fmt.Printf("  %-18s keys=%d frugal=%d promoted=%d promotions=%d rate=%.4f\n",
				"", k.Keys, k.FrugalKeys, k.PromotedKeys, k.Promotions, k.PromotionRate)
		}
	}
}

func parsePhis(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || v > 1 {
			fatalf("bad phi %q", part)
		}
		out = append(out, v)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "streammine: "+format+"\n", args...)
	os.Exit(2)
}
