package main

import "time"

// This file is the benchmark's table of contents: every workload and every
// metric by name. BENCHMARK.json at the repository root repeats it for the
// driver; TestManifestMatchesRegistry keeps the two from drifting.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the library or the daemon sees. Every
// one is defined on every workload (README.md, "What each metric measures").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_mvps", "Mvalues/s", "higher", 0.25},
	{"cpu_ns_per_value", "ns", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"visible_p50_us", "us", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"state_kb_per_stream", "KiB", "lower", 0.10},
	{"live_heap_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers, taken by a traced run. The name
// before the dot is the module. A layer that is not on a workload's path
// reports 0 there.
var perLayer = []metricDef{
	{"stream.gen_s", "s", "lower", 0},
	{"oracle.eps_used", "ratio", "lower", 0},

	{"samplesort.calls", "count", "lower", 0},
	{"samplesort.values", "count", "lower", 0},
	{"samplesort.ns_per_value", "ns", "lower", 0},
	{"samplesort.share", "ratio", "lower", 0},

	{"histogram.ns_per_value", "ns", "lower", 0},
	{"histogram.bins_per_window", "count", "lower", 0},

	{"pipeline.calls", "count", "lower", 0},
	{"pipeline.fill_ns_per_value", "ns", "lower", 0},
	{"pipeline.self_ns_per_value", "ns", "lower", 0},
	{"pipeline.windows", "count", "lower", 0},
	{"pipeline.merge_ops", "count", "lower", 0},
	{"pipeline.compress_ops", "count", "lower", 0},
	{"pipeline.stats_sort_ns_per_value", "ns", "lower", 0},
	{"pipeline.stats_merge_ns_per_value", "ns", "lower", 0},
	{"pipeline.stats_compress_ns_per_value", "ns", "lower", 0},

	{"frequency.merge_compress_ns_per_value", "ns", "lower", 0},
	{"frequency.entries", "count", "lower", 0},
	{"frequency.snapshot_us", "us", "lower", 0},
	{"frequency.answer_us", "us", "lower", 0},

	{"summary.from_window_ns_per_value", "ns", "lower", 0},
	{"summary.merge_ns_per_entry", "ns", "lower", 0},
	{"summary.entries", "count", "lower", 0},

	{"quantile.cascade_ns_per_value", "ns", "lower", 0},
	{"quantile.entries", "count", "lower", 0},
	{"quantile.buckets", "count", "lower", 0},
	{"quantile.snapshot_us", "us", "lower", 0},
	{"quantile.answer_us", "us", "lower", 0},

	{"wire.marshal_us", "us", "lower", 0},
	{"wire.unmarshal_us", "us", "lower", 0},
	{"wire.merge_us", "us", "lower", 0},
	{"wire.bytes", "B", "lower", 0},

	{"gpustream.new_from_spec_us", "us", "lower", 0},
	{"gpustream.alloc_b_per_value", "B", "lower", 0},
	{"gpustream.allocs_per_kvalue", "count", "lower", 0},
	{"gpustream.gc_cycles", "count", "lower", 0},
	{"gpustream.gc_pause_ms", "ms", "lower", 0},
	{"gpustream.trace_overhead_ratio", "ratio", "lower", 0},

	{"service.requests", "count", "higher", 0},
	{"service.failed", "count", "lower", 0},
	{"service.handler_post_ns_per_row", "ns", "lower", 0},
	{"service.handler_get_quantile_us", "us", "lower", 0},
	{"service.handler_get_hh_us", "us", "lower", 0},
	{"service.get_quantile_handler_share", "ratio", "lower", 0},
	{"service.transport_us_per_req", "us", "lower", 0},
	{"service.writer_ns_per_row", "ns", "lower", 0},
	{"service.enqueue_stall_ms", "ms", "lower", 0},
	{"service.ingest_errors", "count", "lower", 0},
	{"service.goroutines", "count", "lower", 0},
	{"service.queue_depth_p50", "count", "lower", 0},
	{"service.queue_depth_max", "count", "lower", 0},
	{"service.backlog_rows_at_end", "count", "lower", 0},
	{"service.barrier_ms", "ms", "lower", 0},
	{"service.wall_mrows_per_s", "Mvalues/s", "higher", 0},
	{"service.util_cores", "cores", "lower", 0},
	{"service.post_p99_us", "us", "lower", 0},
	{"service.get_quantile_p99_us", "us", "lower", 0},
	{"service.get_hh_p50_us", "us", "lower", 0},
	{"service.get_hh_p99_us", "us", "lower", 0},
	{"service.visible_p99_us", "us", "lower", 0},
	{"service.drain_ms", "ms", "lower", 0},
	{"service.spill_bytes", "B", "lower", 0},

	{"trace.root_self_gap", "ratio", "lower", 0},

	{"shard.k2_wall_ns_per_value", "ns", "lower", 0},
	{"shard.k2_cpu_ns_per_value", "ns", "lower", 0},
	{"shard.k2_idle_share", "ratio", "lower", 0},
	{"window.ingest_ns_per_value", "ns", "lower", 0},
	{"window.query_ms", "ms", "lower", 0},
	{"window.entries", "count", "lower", 0},
	{"adaptive.auto_ns_per_value", "ns", "lower", 0},
	{"adaptive.auto_vs_static_ratio", "ratio", "lower", 0},
	{"adaptive.switches", "count", "lower", 0},
}

// runConfig is what one run is asked to do.
type runConfig struct {
	Seed     uint64
	Seconds  float64 // length of the measured phase
	Trace    bool    // record spans and report the per-layer table
	Scale    int     // work divisor: 1 is full size, tests use 64
	TmpDir   string  // parent of the service's spill directory
	TraceOut string  // where a traced run writes its spans; "" writes nothing
}

// minPasses is the fewest passes (or rounds) of each kind a median is taken
// over, however short -seconds is.
const minPasses = 3

// measure is the measured phase: it repeats unit — one pass or one round of
// fixed work — until cfg.Seconds have gone by, stopping early rather than
// starting a unit that would mostly run past the end. A traced run alternates
// untraced and traced units, so that the tracing overhead is measured inside
// the run; op numbers the units from 1.
func measure(cfg runConfig, budget time.Duration, unit func(op int, traced bool) error) error {
	var done [2]int // untraced, traced
	var last time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		enough := done[0] >= minPasses && (!cfg.Trace || done[1] >= minPasses)
		if enough && time.Since(start)+last/2 >= budget {
			return nil
		}
		traced := cfg.Trace && i%2 == 1
		t0 := time.Now()
		if err := unit(i+1, traced); err != nil {
			return err
		}
		last = time.Since(t0)
		if traced {
			done[1]++
		} else {
			done[0]++
		}
	}
}

// result is what one run reports.
type result struct {
	Workload  string
	Host      hostInfo
	Attempted int
	Failed    int
	Problems  []string
	EndToEnd  map[string]float64
	PerLayer  map[string]float64 // nil unless traced
	Detail    []string           // human-readable lines: tails, sample counts
}

// workloadDef is one named workload.
type workloadDef struct {
	Name string
	Why  string
	Run  func(cfg runConfig) (*result, error)
}

var workloads = []workloadDef{
	{
		"lib-freq-zipf",
		"Library frequency over a zipf stream: few distinct values per window and ~95% sort, where a sort-free window reducer or a faster small-window sort must show.",
		func(cfg runConfig) (*result, error) { return runLib(libFreqZipf, cfg) },
	},
	{
		"lib-freq-uniform",
		"Same estimator over an all-distinct uniform stream: the bypass for any cardinality-adaptive shortcut (prediction: no change) and the same sort/histogram layers on the opposite input shape.",
		func(cfg runConfig) (*result, error) { return runLib(libFreqUniform, cfg) },
	},
	{
		"lib-quant-zipf",
		"Library quantile at default capacity over the same zipf stream: merge+compress is ~60% and the summary ~100K entries, so summary and query-path work shows here and not in lib-freq-*.",
		func(cfg runConfig) (*result, error) { return runLib(libQuantZipf, cfg) },
	},
	{
		"svc-ingest-json",
		"Daemon over loopback HTTP, 64 streams, write-only JSON batches in a closed loop: HTTP, JSON decode and the queue dominate while the estimators do little.",
		func(cfg runConfig) (*result, error) { return runService(svcIngestJSON, cfg) },
	},
	{
		"svc-mixed-bin",
		"Same daemon with binary batches and every tenth op a GET: reads beside writes, so a gain for ingest that costs queries (or the reverse) shows; decode is nearly free, snapshot/merge/marshal is not.",
		func(cfg runConfig) (*result, error) { return runService(svcMixedBin, cfg) },
	},
}
