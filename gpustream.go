// Package gpustream is a reproduction of "Fast and Approximate Stream
// Mining of Quantiles and Frequencies Using Graphics Processors"
// (Govindaraju, Raghuvanshi, Manocha; SIGMOD 2005): epsilon-approximate
// quantile and frequency estimation over large data streams, with the
// dominant sorting step executed on a (simulated) GPU via the paper's
// rasterization-based periodic balanced sorting network.
//
// The entry point is Engine, which binds a sorting backend — the GPU PBSN
// sorter, the prior-work GPU bitonic sorter, or CPU quicksorts — to the
// stream-mining estimators:
//
//	eng := gpustream.New(gpustream.BackendGPU)
//	freq := eng.NewFrequencyEstimator(0.001)
//	freq.ProcessSlice(values)
//	heavy := freq.Query(0.01) // items above 1% support, no false negatives
//
//	quant := eng.NewQuantileEstimator(0.001, int64(len(values)))
//	quant.ProcessSlice(values)
//	median := quant.Query(0.5)
//
// Sliding-window variants (NewSlidingFrequency, NewSlidingQuantile) answer
// the same queries over the most recent W elements, for fixed and
// variable-sized windows.
//
// The whole stack is generic over the ordered value types of sorter.Value:
// float32 (the paper's native stream type, what New returns), float64,
// uint32, uint64, int32 and int64. NewOf instantiates an engine at any of
// them — e.g. NewOf[uint64] mines streams of nanosecond timestamps or flow
// keys natively, with no lossy float encoding:
//
//	eng := gpustream.NewOf[uint64](gpustream.BackendGPU)
//	quant := eng.NewQuantileEstimator(0.001, int64(len(stamps)))
//	quant.ProcessSlice(stamps)
//	p99 := quant.Query(0.99)
//
// Because no real 2004 GPU is attached, the GPU backend runs against a
// functional simulator that executes the paper's rasterization routines
// with real data and counts every primitive operation; the perfmodel
// converts those counts into modeled GeForce-6800-Ultra time (see DESIGN.md
// for the substitution argument and EXPERIMENTS.md for paper-vs-measured
// results). The simulator's primitive-op counts depend only on input shape,
// never on the element type, so modeled GPU time is identical across
// instantiations (DESIGN.md section 10).
package gpustream

import (
	"sync"

	"gpustream/internal/adaptive"
	"gpustream/internal/frequency"
	"gpustream/internal/frugal"
	"gpustream/internal/gpusort"
	"gpustream/internal/perfmodel"
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/shard"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
	"gpustream/internal/window"
)

// Value constrains the stream element types the stack supports: the ordered
// numeric types every sorting backend and estimator family is generic over.
type Value = sorter.Value

// Sorter sorts slices of T ascending in place; all backends satisfy it.
type Sorter[T Value] = sorter.Sorter[T]

// Re-exported result and instrumentation types. The generic aliases follow
// the same shape as the engine: instantiate at float32 for the paper's
// native streams, or any other Value type.
type (
	// Item is a frequency-query result: a value and its estimated count.
	Item[T Value] = frequency.Item[T]
	// WindowItem is a sliding-window frequency-query result.
	WindowItem[T Value] = window.Item[T]
	// FrequencyEstimator answers eps-approximate frequency queries over
	// the whole stream history (Manku-Motwani lossy counting).
	FrequencyEstimator[T Value] = frequency.Estimator[T]
	// QuantileEstimator answers eps-approximate quantile queries over the
	// whole stream history (Greenwald-Khanna + exponential histogram).
	QuantileEstimator[T Value] = quantile.Estimator[T]
	// SlidingFrequency answers frequency queries over the most recent W
	// elements.
	SlidingFrequency[T Value] = window.SlidingFrequency[T]
	// SlidingQuantile answers quantile queries over the most recent W
	// elements.
	SlidingQuantile[T Value] = window.SlidingQuantile[T]
	// QuantileSummary is a mergeable Greenwald-Khanna quantile summary
	// with rank bounds, as returned by sensor-tree aggregation.
	QuantileSummary[T Value] = summary.Summary[T]
	// ParallelQuantileEstimator answers eps-approximate quantile queries
	// over a stream ingested concurrently by K shard workers.
	ParallelQuantileEstimator[T Value] = shard.Quantile[T]
	// ParallelFrequencyEstimator answers eps-approximate frequency queries
	// over a stream ingested concurrently by K shard workers.
	ParallelFrequencyEstimator[T Value] = shard.Frequency[T]
	// ParallelOption configures sharded ingestion (e.g. WithBatchSize).
	ParallelOption = shard.Option
	// PerfModel converts operation counts to modeled 2004-testbed time.
	PerfModel = perfmodel.Model
	// SortBreakdown decomposes one modeled GPU sort (Figure 4).
	SortBreakdown = perfmodel.SortBreakdown
	// Stats is the unified per-stage pipeline telemetry every estimator
	// reports: operation counters plus wall clock for sort, merge,
	// compress, and (for sharded ingestion) worker idle time.
	Stats = pipeline.Stats
	// Snapshot is an immutable point-in-time queryable view of an
	// estimator, as returned by Snapshot() on every family. See Estimator.
	Snapshot[T Value] = pipeline.View[T]
	// FrequencySnapshot is the concrete view of a FrequencyEstimator (and
	// of a K=1 ParallelFrequencyEstimator).
	FrequencySnapshot[T Value] = frequency.Snapshot[T]
	// QuantileSnapshot is the concrete view of a QuantileEstimator or
	// ParallelQuantileEstimator.
	QuantileSnapshot[T Value] = quantile.Snapshot[T]
	// SlidingFrequencySnapshot is the concrete view of a SlidingFrequency,
	// answering variable-span window queries.
	SlidingFrequencySnapshot[T Value] = window.FrequencySnapshot[T]
	// SlidingQuantileSnapshot is the concrete view of a SlidingQuantile,
	// answering variable-span window queries.
	SlidingQuantileSnapshot[T Value] = window.QuantileSnapshot[T]
	// FrugalEstimator maintains a bank of frugal-streaming quantile
	// trackers — one or two words of state per target quantile, no summary,
	// no sort. Answers are converging point estimates, not eps-bounded
	// ranks.
	FrugalEstimator[T Value] = frugal.Estimator[T]
	// FrugalOption configures a FrugalEstimator (WithPhis, WithFrugalSeed).
	FrugalOption = frugal.Option
	// FrugalSnapshot is the concrete view of a FrugalEstimator.
	FrugalSnapshot[T Value] = frugal.Snapshot[T]
)

// ErrClosed is the sentinel error for ingestion after Close. Every
// estimator's Process/ProcessSlice returns an error wrapping it once the
// estimator is closed; test with errors.Is(err, gpustream.ErrClosed).
var ErrClosed = pipeline.ErrClosed

// EstimatorStats is one engine-created estimator's telemetry snapshot, as
// returned by Engine.Stats.
type EstimatorStats struct {
	// Kind identifies the estimator family: "frequency", "quantile",
	// "sliding-frequency", "sliding-quantile", "parallel-frequency",
	// "parallel-quantile", "frugal", or "keyed".
	Kind  string
	Stats Stats
	// Backend is the canonical name of the sorting backend the estimator's
	// pipeline is currently running — under BackendAuto this tracks the
	// adaptive controller's live selection. Empty for sorter-less families
	// (frugal, keyed frugal tiers).
	Backend string
	// Window is the pipeline's currently selected sort-window size in
	// elements; zero for sorter-less families.
	Window int
	// Async reports whether the pipeline is currently ingesting through the
	// staged asynchronous executor — under elastic concurrency
	// ("async":"auto") this tracks the adaptive controller's live mode
	// decision. Always false for sorter-less families.
	Async bool
	// Shards is the live worker count of the parallel families — under
	// elastic sharding ("shards":"auto") this tracks the scaler's live
	// count. Zero for serial families.
	Shards int
	// Tuning carries the adaptive controller's externally visible state for
	// estimators created under BackendAuto or with elastic concurrency (for
	// parallel families, shard 0's controller — all shards see
	// statistically identical substreams); nil for pinned or fully static
	// configurations.
	Tuning *TuningDecision
	// Keyed carries tier occupancy for "keyed" estimators (per-tier key
	// counts, promotion rate); nil for every other kind.
	Keyed *KeyedTierStats
}

// TuningDecision is an adaptive controller's externally visible state: what
// it has selected, which phase of the probe/climb/steady state machine it is
// in, and its per-backend measurements. Surfaced through Engine.Stats,
// streammine -stats, and cmd/streamd's /statsz.
type TuningDecision struct {
	// Backend is the committed (or currently probing) backend name.
	Backend string `json:"backend"`
	// Window is the controller's selected sort-window size.
	Window int `json:"window"`
	// Phase is "probe", "window", or "steady".
	Phase string `json:"phase"`
	// Switches counts backend swaps the controller has scheduled,
	// including probe cycling.
	Switches int `json:"switches"`
	// Async is the controller's live execution-mode observation ("sync" or
	// "async"), empty until the first retune.
	Async string `json:"async,omitempty"`
	// NsPerValue holds the latest measured sort cost per value for every
	// backend probed so far.
	NsPerValue map[string]float64 `json:"ns_per_value,omitempty"`
	// Shards, ShardPhase and Rescales carry the shard-count scaler's state
	// for elastic parallel estimators ("shards":"auto"); zero otherwise.
	Shards     int    `json:"shards,omitempty"`
	ShardPhase string `json:"shard_phase,omitempty"`
	Rescales   int    `json:"rescales,omitempty"`
	// ShardNsPerValue holds the scaler's latest measured wall clock per
	// value for every shard count tried so far, keyed by the decimal count.
	ShardNsPerValue map[string]float64 `json:"shard_ns_per_value,omitempty"`
}

// Engine binds a sorting backend to the stream-mining algorithms over
// streams of element type T.
type Engine[T Value] struct {
	backend Backend
	srt     Sorter[T]
	model   perfmodel.Model

	mu       sync.Mutex
	trackers []tracker[T]
}

// tracker is one registered estimator: its kind and the readers of its live
// telemetry. knobs and async are nil for sorter-less families, shards for
// serial ones, ctrl and scaler for static configurations; keyed is non-nil
// only for keyed estimators, whose tier occupancy rides along with the
// pipeline stats.
type tracker[T Value] struct {
	kind   string
	stats  func() Stats
	knobs  func() (Sorter[T], int)
	async  func() bool
	shards func() int
	ctrl   *adaptive.Controller[T]
	scaler *adaptive.Scaler
	keyed  func() KeyedTierStats
}

// register records an estimator's telemetry readers, in creation order.
func (e *Engine[T]) register(t tracker[T]) {
	e.mu.Lock()
	e.trackers = append(e.trackers, t)
	e.mu.Unlock()
}

// tuningDecision folds an adaptive controller's and a shard-count scaler's
// decisions (either may be nil) into the one TuningDecision Engine.Stats
// reports.
func tuningDecision[T Value](ctrl *adaptive.Controller[T], scaler *adaptive.Scaler) *TuningDecision {
	d := &TuningDecision{}
	if ctrl != nil {
		cd := ctrl.Decision()
		d.Backend = cd.Backend
		d.Window = cd.Window
		d.Phase = cd.Phase
		d.Switches = cd.Switches
		d.Async = cd.Async
		d.NsPerValue = cd.NsPerValue
	}
	if scaler != nil {
		sd := scaler.Decision()
		d.Shards = sd.Shards
		d.ShardPhase = sd.Phase
		d.Rescales = sd.Rescales
		d.ShardNsPerValue = sd.NsPerValue
	}
	return d
}

// Stats snapshots the unified pipeline telemetry of every estimator this
// engine has created, in creation order. It is safe to call at any time,
// including mid-ingestion: every estimator synchronizes its stats reads
// with its ingestion, so each report's counters are internally consistent
// (no torn sort/merge/compress totals).
func (e *Engine[T]) Stats() []EstimatorStats {
	e.mu.Lock()
	trackers := append([]tracker[T](nil), e.trackers...)
	e.mu.Unlock()
	out := make([]EstimatorStats, len(trackers))
	for i, t := range trackers {
		out[i] = EstimatorStats{Kind: t.kind, Stats: t.stats()}
		if t.knobs != nil {
			out[i].Backend = e.runs()
			_, out[i].Window = t.knobs()
		}
		if t.async != nil {
			out[i].Async = t.async()
		}
		if t.shards != nil {
			out[i].Shards = t.shards()
		}
		if t.ctrl != nil || t.scaler != nil {
			out[i].Tuning = tuningDecision(t.ctrl, t.scaler)
			// A tuned pipeline sorts with its controller's candidate from
			// the first Retune on, which is also when Async is first set.
			if out[i].Tuning.Async != "" {
				out[i].Backend = out[i].Tuning.Backend
			}
		}
		if t.keyed != nil {
			ks := t.keyed()
			out[i].Keyed = &ks
		}
	}
	return out
}

// New returns an Engine over float32 streams — the paper's native element
// type — using the given backend.
func New(backend Backend) *Engine[float32] { return NewOf[float32](backend) }

// NewOf returns an Engine over streams of element type T using the given
// backend. All four backends support every Value type; GPU primitive-op
// counts (and therefore modeled GPU time) are identical across types for
// equal input sizes.
func NewOf[T Value](backend Backend) *Engine[T] {
	e := &Engine[T]{backend: backend, model: perfmodel.Default()}
	e.srt = newBackendSorter[T](backend)
	return e
}

// newBackendSorter is the engine-bound form of the package-level helper.
func (e *Engine[T]) newBackendSorter() Sorter[T] { return newBackendSorter[T](e.backend) }

// runs names the concrete backend the engine's pipelines sort with until a
// controller moves them: the engine's own for a concrete backend, auto's
// sample-sort starting point otherwise.
func (e *Engine[T]) runs() string { return e.backend.row().runs.String() }

// WithBatchSize overrides the parallel estimators' ingestion hand-off batch
// size (default ~64K values).
func WithBatchSize(n int) ParallelOption { return shard.WithBatchSize(n) }

// WithAsyncShards enables staged asynchronous ingestion inside every shard of
// a parallel estimator: each worker's windows sort on a dedicated stage
// goroutine that overlaps the merge/compress of the previous window. Answers
// stay bit-identical to synchronous shards.
func WithAsyncShards() ParallelOption { return shard.WithAsync() }

// WithShardSortWindow overrides the per-shard sort-window size of a parallel
// estimator, the sharded counterpart of WithSortWindow. Values below the
// per-shard eps floor are clamped up.
func WithShardSortWindow(n int) ParallelOption { return shard.WithWindow(n) }

// WithPinnedShardTuning installs a do-nothing tuner on every shard pipeline
// of a parallel estimator — the sharded counterpart of WithPinnedTuning. T
// must match the engine's element type.
func WithPinnedShardTuning[T Value]() ParallelOption {
	return shard.WithTunerFactory(func() pipeline.Tuner[T] { return adaptive.Pinned[T]() })
}

// EstimatorOption configures a serial estimator constructor
// (NewFrequencyEstimator, NewQuantileEstimator, NewSlidingFrequency,
// NewSlidingQuantile).
type EstimatorOption func(*estimatorConfig)

type estimatorConfig struct {
	async     bool
	autoAsync bool
	window    int
	pinned    bool
}

// withAutoAsync hands the execution mode (sync vs staged async ingestion) to
// the adaptive controller: the concurrency phase measures both modes on the
// live stream and commits to the faster one, re-probing on degradation. The
// construction path of Spec{Async: AsyncAuto}; unexported because Spec is the
// declarative surface for elastic concurrency.
func withAutoAsync() EstimatorOption { return func(c *estimatorConfig) { c.autoAsync = true } }

// WithAsyncIngestion enables staged asynchronous ingestion — the paper's
// co-processing execution model: each full window is handed to a sort stage
// goroutine (the simulated GPU's non-blocking render + readback) while the
// merge/compress of the previous window proceeds concurrently, with two
// pooled window buffers double-buffering ingestion. Answers and sort
// operation counts are bit-identical to the default synchronous mode;
// Stats.Overlap reports the measured co-processing time.
func WithAsyncIngestion() EstimatorOption { return func(c *estimatorConfig) { c.async = true } }

// WithSortWindow overrides the whole-history families' sort-window size in
// elements. Values below a family's eps floor are clamped up by the
// estimator; the sliding families ignore it (their pane size is the query
// parameter w, part of the answer's semantics, not a tuning knob). Under
// BackendAuto this sets the adaptive controller's minimum window.
func WithSortWindow(n int) EstimatorOption {
	if n <= 0 {
		panic("gpustream: sort window must be positive")
	}
	return func(c *estimatorConfig) { c.window = n }
}

// WithPinnedTuning installs a do-nothing tuner on the estimator's pipeline:
// the retune hook runs at every window boundary but never moves a knob, so
// answers are bit-identical to the same backend with no tuner at all. Under
// BackendAuto this pins the pipeline to its sample-sort starting point —
// the harness for the bit-identity tests, and an escape hatch when adaptive
// behavior is unwanted on one estimator of an auto engine.
func WithPinnedTuning() EstimatorOption {
	return func(c *estimatorConfig) { c.pinned = true }
}

func parseEstimatorOptions(opts []EstimatorOption) estimatorConfig {
	var cfg estimatorConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// tunable is the SetTuner surface every sorter-backed estimator family
// exposes.
type tunable[T Value] interface {
	SetTuner(pipeline.Tuner[T])
}

// attachTuner wires the estimator's pipeline to an adaptive controller
// (BackendAuto, or any backend with elastic concurrency), a pinned tuner
// (WithPinnedTuning), or nothing (fully static configurations). It returns
// the controller when one was attached, for telemetry registration.
// tuneWindow gates the controller's window hill-climb — off for the sliding
// families, whose pane size is query semantics. On a static backend with
// autoAsync the controller sees exactly one candidate, so the probe phase
// degenerates to a baseline measurement and only the execution mode moves.
func (e *Engine[T]) attachTuner(est tunable[T], cfg estimatorConfig, tuneWindow bool) *adaptive.Controller[T] {
	switch {
	case cfg.pinned:
		est.SetTuner(adaptive.Pinned[T]())
	case e.backend == BackendAuto:
		ctrl := adaptive.New(autoCandidates[T](e.model), adaptive.Config{TuneWindow: tuneWindow, ProbeFirst: e.runs(), TuneAsync: cfg.autoAsync})
		est.SetTuner(ctrl)
		return ctrl
	case cfg.autoAsync:
		cand := candidateFor[T](e.backend, e.model)
		ctrl := adaptive.New([]adaptive.Candidate[T]{cand}, adaptive.Config{ProbeFirst: cand.Backend, TuneAsync: true})
		est.SetTuner(ctrl)
		return ctrl
	}
	return nil
}

// Backend reports the engine's configured backend.
func (e *Engine[T]) Backend() Backend { return e.backend }

// Sorter exposes the engine's sorting backend.
func (e *Engine[T]) Sorter() Sorter[T] { return e.srt }

// Model exposes the 2004-testbed performance model.
func (e *Engine[T]) Model() PerfModel { return e.model }

// Sort orders data ascending in place using the configured backend.
func (e *Engine[T]) Sort(data []T) { e.srt.Sort(data) }

// LastSortBreakdown models the cost of the most recent GPU-backed
// Engine.Sort call on the paper's testbed. It returns ok=false for CPU
// backends, which have no transfer/setup decomposition, and before any Sort
// call. Estimators sort through their own sorter instances and report
// through Stats instead.
func (e *Engine[T]) LastSortBreakdown() (SortBreakdown, bool) {
	switch s := e.srt.(type) {
	case *gpusort.Sorter[T]:
		if st := s.LastStats(); st.GPU.Transfers > 0 {
			return e.model.GPUSortFromStats(st.GPU, st.MergeCmps), true
		}
	case *gpusort.BitonicSorter[T]:
		if st := s.LastStats(); st.GPU.Transfers > 0 {
			return e.model.GPUSortFromStats(st.GPU, st.MergeCmps), true
		}
	}
	return SortBreakdown{}, false
}

// NewFrequencyEstimator returns an eps-approximate frequency estimator
// backed by this engine's sorter. Estimated counts undercount true ones by
// at most eps*N; Query(s) reports every item above support s with no false
// negatives.
// Each estimator gets its own sorter instance: stateful backends (the GPU
// simulator's LastStats) must not be shared between estimators, and this
// also keeps Engine.Sort's LastSortBreakdown isolated from estimator
// ingestion.
func (e *Engine[T]) NewFrequencyEstimator(eps float64, opts ...EstimatorOption) *FrequencyEstimator[T] {
	cfg := parseEstimatorOptions(opts)
	var fopts []frequency.Option
	if cfg.async {
		fopts = append(fopts, frequency.WithAsync())
	}
	if cfg.window > 0 {
		fopts = append(fopts, frequency.WithWindow(cfg.window))
	}
	est := frequency.NewEstimator(eps, e.newBackendSorter(), fopts...)
	ctrl := e.attachTuner(est, cfg, true)
	e.register(tracker[T]{kind: "frequency", stats: est.Stats, knobs: est.Knobs, async: est.Async, ctrl: ctrl})
	return est
}

// NewQuantileEstimator returns an eps-approximate quantile estimator backed
// by this engine's sorter. capacity is accepted for compatibility and
// ignored: the summary budgets its error by the depth it observes, so the
// bound holds at any stream length (DESIGN.md section 17).
func (e *Engine[T]) NewQuantileEstimator(eps float64, capacity int64, opts ...EstimatorOption) *QuantileEstimator[T] {
	cfg := parseEstimatorOptions(opts)
	var qopts []quantile.Option
	if cfg.async {
		qopts = append(qopts, quantile.WithAsync())
	}
	if cfg.window > 0 {
		qopts = append(qopts, quantile.WithWindow(cfg.window))
	}
	est := quantile.NewEstimator(eps, capacity, e.newBackendSorter(), qopts...)
	ctrl := e.attachTuner(est, cfg, true)
	e.register(tracker[T]{kind: "quantile", stats: est.Stats, knobs: est.Knobs, async: est.Async, ctrl: ctrl})
	return est
}

// NewParallelQuantileEstimator returns an eps-approximate quantile
// estimator that partitions ingestion across `shards` goroutine workers
// (shards <= 0 selects runtime.GOMAXPROCS(0)), each with its own sorter
// instance of this engine's backend. Per-shard summaries carry an eps/2
// budget and queries merge them, so answers stay eps-approximate; with one
// shard the output is bit-identical to NewQuantileEstimator. Call Flush to
// make buffered values queryable and Close when ingestion ends.
func (e *Engine[T]) NewParallelQuantileEstimator(eps float64, capacity int64, shards int, opts ...ParallelOption) *ParallelQuantileEstimator[T] {
	return e.newParallelQuantile(eps, capacity, shards, tuningSpec{}, opts...)
}

func (e *Engine[T]) newParallelQuantile(eps float64, capacity int64, shards int, tn tuningSpec, opts ...ParallelOption) *ParallelQuantileEstimator[T] {
	opts, ctrl, scaler := e.shardTuning(tn, opts)
	est := shard.NewQuantile(eps, capacity, shards, e.newBackendSorter, opts...)
	e.register(tracker[T]{kind: "parallel-quantile", stats: est.Stats, knobs: est.Knobs, async: est.Async, shards: est.Shards, ctrl: ctrl(), scaler: scaler})
	return est
}

// NewParallelFrequencyEstimator returns an eps-approximate frequency
// estimator that partitions ingestion across `shards` goroutine workers
// (shards <= 0 selects runtime.GOMAXPROCS(0)), each with its own sorter
// instance of this engine's backend. Lossy-counting undercounts are
// additive across shards, so merged answers keep the serial estimator's
// no-false-negative guarantee; with one shard the output is bit-identical
// to NewFrequencyEstimator.
func (e *Engine[T]) NewParallelFrequencyEstimator(eps float64, shards int, opts ...ParallelOption) *ParallelFrequencyEstimator[T] {
	return e.newParallelFrequency(eps, shards, tuningSpec{}, opts...)
}

func (e *Engine[T]) newParallelFrequency(eps float64, shards int, tn tuningSpec, opts ...ParallelOption) *ParallelFrequencyEstimator[T] {
	opts, ctrl, scaler := e.shardTuning(tn, opts)
	est := shard.NewFrequency(eps, shards, e.newBackendSorter, opts...)
	e.register(tracker[T]{kind: "parallel-frequency", stats: est.Stats, knobs: est.Knobs, async: est.Async, shards: est.Shards, ctrl: ctrl(), scaler: scaler})
	return est
}

// tuningSpec names the elastic axes a Spec asked the runtime to own:
// autoAsync hands each shard pipeline's execution mode to its adaptive
// controller ("async":"auto"), autoShards installs a Scaler that hill-climbs
// the worker count ("shards":"auto").
type tuningSpec struct {
	autoAsync  bool
	autoShards bool
}

// shardTuning prepends the engine's adaptive tuner factory to the parallel
// options when the backend is auto or the spec asked for elastic concurrency
// (prepended, so caller-supplied factories — e.g. WithPinnedShardTuning —
// still win), installs the shard-count scaler under autoShards, and returns
// a getter for shard 0's controller, valid once the sharded constructor has
// run the factory. Shard 0 is never retired by a scale-down (the pool
// removes workers from the tail and keeps at least one), so its controller
// stays live for telemetry across any rescale schedule.
func (e *Engine[T]) shardTuning(tn tuningSpec, opts []ParallelOption) ([]ParallelOption, func() *adaptive.Controller[T], *adaptive.Scaler) {
	var scaler *adaptive.Scaler
	if tn.autoShards {
		scaler = adaptive.NewScaler(adaptive.ScalerConfig{})
		opts = append([]ParallelOption{shard.WithRescaler(scaler)}, opts...)
	}
	if e.backend != BackendAuto && !tn.autoAsync {
		return opts, func() *adaptive.Controller[T] { return nil }, scaler
	}
	// The factory runs under the family's shard lock — at construction and
	// again on every elastic scale-up — so guard the shard-0 capture with
	// its own mutex against a concurrent Stats reader.
	var (
		mu    sync.Mutex
		first *adaptive.Controller[T]
	)
	factory := func() pipeline.Tuner[T] {
		cands := autoCandidates[T](e.model)
		cfg := adaptive.Config{TuneWindow: true, ProbeFirst: e.runs(), TuneAsync: tn.autoAsync}
		if e.backend != BackendAuto {
			cand := candidateFor[T](e.backend, e.model)
			cands = []adaptive.Candidate[T]{cand}
			cfg = adaptive.Config{ProbeFirst: cand.Backend, TuneAsync: true}
		}
		c := adaptive.New(cands, cfg)
		mu.Lock()
		if first == nil {
			first = c
		}
		mu.Unlock()
		return c
	}
	opts = append([]ParallelOption{shard.WithTunerFactory(factory)}, opts...)
	return opts, func() *adaptive.Controller[T] {
		mu.Lock()
		defer mu.Unlock()
		return first
	}, scaler
}

// NewSlidingFrequency returns an eps-approximate frequency estimator over
// sliding windows of w elements, backed by this engine's sorter.
func (e *Engine[T]) NewSlidingFrequency(eps float64, w int, opts ...EstimatorOption) *SlidingFrequency[T] {
	cfg := parseEstimatorOptions(opts)
	var wopts []window.Option
	if cfg.async {
		wopts = append(wopts, window.WithAsync())
	}
	est := window.NewSlidingFrequency(eps, w, e.newBackendSorter(), wopts...)
	ctrl := e.attachTuner(est, cfg, false)
	e.register(tracker[T]{kind: "sliding-frequency", stats: est.Stats, knobs: est.Knobs, async: est.Async, ctrl: ctrl})
	return est
}

// NewSlidingQuantile returns an eps-approximate quantile estimator over
// sliding windows of w elements, backed by this engine's sorter.
func (e *Engine[T]) NewSlidingQuantile(eps float64, w int, opts ...EstimatorOption) *SlidingQuantile[T] {
	cfg := parseEstimatorOptions(opts)
	var wopts []window.Option
	if cfg.async {
		wopts = append(wopts, window.WithAsync())
	}
	est := window.NewSlidingQuantile(eps, w, e.newBackendSorter(), wopts...)
	ctrl := e.attachTuner(est, cfg, false)
	e.register(tracker[T]{kind: "sliding-quantile", stats: est.Stats, knobs: est.Knobs, async: est.Async, ctrl: ctrl})
	return est
}

// WithPhis selects the target quantiles a FrugalEstimator tracks, one word
// of state each (default frugal.DefaultPhis).
func WithPhis(phis ...float64) FrugalOption { return frugal.WithPhis(phis...) }

// WithFrugalSeed seeds a FrugalEstimator's randomized rank gates; estimates
// are deterministic for a fixed seed and ingestion order.
func WithFrugalSeed(seed uint64) FrugalOption { return frugal.WithSeed(seed) }

// NewFrugalEstimator returns a frugal-streaming quantile estimator: one
// converging point estimate per tracked target quantile, in one or two
// machine words each — the opposite end of the memory spectrum from the
// summary-based families, with heuristic (not eps-bounded) answers. It uses
// no sorter; it registers with the engine only for Stats reporting.
func (e *Engine[T]) NewFrugalEstimator(opts ...FrugalOption) *FrugalEstimator[T] {
	est := frugal.NewEstimator[T](opts...)
	e.register(tracker[T]{kind: "frugal", stats: est.Stats})
	return est
}
