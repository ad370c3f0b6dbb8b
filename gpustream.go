// Package gpustream is a reproduction of "Fast and Approximate Stream
// Mining of Quantiles and Frequencies Using Graphics Processors"
// (Govindaraju, Raghuvanshi, Manocha; SIGMOD 2005): epsilon-approximate
// quantile and frequency estimation over large data streams, with the
// dominant sorting step executed on a (simulated) GPU via the paper's
// rasterization-based periodic balanced sorting network.
//
// The entry point is Engine, which binds a sorting backend — the GPU PBSN
// sorter, the prior-work GPU bitonic sorter, CPU quicksorts, or the
// host-native key-radix sorter that is the zero Backend and what a Spec
// naming no backend runs on — to the stream-mining estimators:
//
//	eng := gpustream.New(gpustream.BackendGPU)
//	freq := eng.NewFrequencyEstimator(0.001)
//	freq.ProcessSlice(values)
//	heavy := freq.Query(0.01) // items above 1% support, no false negatives
//
//	quant := eng.NewQuantileEstimator(0.001)
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
//	quant := eng.NewQuantileEstimator(0.001)
//	quant.ProcessSlice(stamps)
//	p99 := quant.Query(0.99)
//
// Because no real 2004 GPU is attached, the GPU backend runs against a
// functional simulator that executes the paper's rasterization routines
// with real data and counts every primitive operation; the perfmodel
// converts those counts into modeled GeForce-6800-Ultra time (DESIGN.md §2
// for the substitution argument and EXPERIMENTS.md for paper-vs-measured
// results). The simulator's primitive-op counts depend only on input shape,
// never on the element type, so modeled GPU time is identical across
// instantiations (DESIGN.md §9).
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
	// FrugalOption configures a FrugalEstimator (WithPhis).
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
	// Kind identifies the estimator family: a Family.String form
	// ("frequency", "quantile", "sliding-frequency", "sliding-quantile",
	// "parallel-frequency", "parallel-quantile", "frugal"), or "keyed".
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

// tracker is one registered estimator: its kind, the estimator itself behind
// the one method every family has, and the tuning state attached to it (ctrl
// and scaler are nil for static configurations). Engine.Stats reads the rest
// of the telemetry through the optional interfaces below.
type tracker[T Value] struct {
	kind   string
	est    interface{ Stats() Stats }
	ctrl   *adaptive.Controller[T]
	scaler *adaptive.Scaler
}

// pipelined is the knob telemetry of the sorter-backed families (serial,
// sliding and parallel alike); sharded that of the parallel ones; tiered
// that of keyed estimators, whose tier occupancy rides along with the
// pipeline stats.
type (
	pipelined[T Value] interface {
		Knobs() (Sorter[T], int)
		Async() bool
	}
	sharded interface{ Shards() int }
	tiered  interface{ TierStats() KeyedTierStats }
)

// register records an estimator for telemetry, in creation order.
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
		out[i] = EstimatorStats{Kind: t.kind, Stats: t.est.Stats()}
		if p, ok := t.est.(pipelined[T]); ok {
			out[i].Backend = e.runs()
			_, out[i].Window = p.Knobs()
			out[i].Async = p.Async()
		}
		if s, ok := t.est.(sharded); ok {
			out[i].Shards = s.Shards()
		}
		if t.ctrl != nil || t.scaler != nil {
			out[i].Tuning = tuningDecision(t.ctrl, t.scaler)
			// A tuned pipeline sorts with its controller's candidate from
			// the first Retune on, which is also when Async is first set.
			if out[i].Tuning.Async != "" {
				out[i].Backend = out[i].Tuning.Backend
			}
		}
		if k, ok := t.est.(tiered); ok {
			ks := k.TierStats()
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

// estimatorConfig is the one resolved construction-time configuration
// behind every constructor: NewFromSpec fills it straight from the Spec, the
// typed constructors fill it from their options, and both call the same
// per-family build functions (DESIGN.md §16). Serial families read
// window, async and pinned; parallel families read all five. pinned and
// batch are set only by tests.
type estimatorConfig struct {
	window  int       // sort-window override in elements; 0 keeps the family's default
	async   AsyncMode // AsyncOn starts on the staged executor; AsyncAuto hands the mode to the controller
	pinned  bool      // a do-nothing tuner on every pipeline
	batch   int       // parallel hand-off batch size; 0 keeps the default (~64K values)
	elastic bool      // a Scaler owns the shard count ("shards":"auto")
}

// EstimatorOption configures an estimator constructor. The parallel
// constructors apply each option to every shard.
type EstimatorOption func(*estimatorConfig)

// resolve folds a constructor's options over the zero config.
func resolve(opts []EstimatorOption) estimatorConfig {
	var cfg estimatorConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// pipeline spells the window override and the construction mode in the one
// vocabulary every internal constructor takes.
func (c estimatorConfig) pipeline() []pipeline.Option {
	var opts []pipeline.Option
	if c.window > 0 {
		opts = append(opts, pipeline.WithWindow(c.window))
	}
	if c.async == AsyncOn {
		opts = append(opts, pipeline.WithAsync())
	}
	return opts
}

// WithAsyncIngestion enables staged asynchronous ingestion — the paper's
// co-processing execution model: each full window is handed to a sort stage
// goroutine (the simulated GPU's non-blocking render + readback) while the
// ingesting caller (the paper's CPU) merges/compresses the previous window,
// with two pooled window buffers double-buffering ingestion. Answers and sort
// operation counts are bit-identical to the default synchronous mode;
// Stats.Overlap reports the measured co-processing time. In a parallel
// estimator every shard runs its own sort stage.
func WithAsyncIngestion() EstimatorOption { return func(c *estimatorConfig) { c.async = AsyncOn } }

// WithSortWindow overrides the whole-history families' sort-window size in
// elements. Values below a family's eps floor are clamped up by the
// estimator; the sliding families ignore it (their pane size is the query
// parameter w, part of the answer's semantics, not a tuning knob). In a
// parallel estimator it sets every shard's window, clamped to the shard's
// eps floor. Under BackendAuto this sets the adaptive controller's minimum
// window.
func WithSortWindow(n int) EstimatorOption {
	if n <= 0 {
		panic("gpustream: sort window must be positive")
	}
	return func(c *estimatorConfig) { c.window = n }
}

// tuner returns the tuner for one pipeline built under cfg — and the
// adaptive controller behind it when it is one, for telemetry — or nil for a
// fully static configuration. Pinned wins: a do-nothing tuner. An auto
// engine probes every concrete backend and, when tuneWindow is set, climbs
// the window (off for the sliding families, whose pane size is query
// semantics). A concrete backend with elastic concurrency gets exactly one
// candidate, so the probe phase degenerates to a baseline measurement and
// only the execution mode ever moves.
func (e *Engine[T]) tuner(cfg estimatorConfig, tuneWindow bool) (pipeline.Tuner[T], *adaptive.Controller[T]) {
	var ctrl *adaptive.Controller[T]
	switch {
	case cfg.pinned:
		return adaptive.Pinned[T](), nil
	case e.backend == BackendAuto:
		ctrl = adaptive.New(autoCandidates[T](e.model),
			adaptive.Config{TuneWindow: tuneWindow, ProbeFirst: e.runs(), TuneAsync: cfg.async == AsyncAuto})
	case cfg.async == AsyncAuto:
		cand := candidateFor[T](e.backend, e.model)
		ctrl = adaptive.New([]adaptive.Candidate[T]{cand}, adaptive.Config{ProbeFirst: cand.Backend, TuneAsync: true})
	default:
		return nil, nil
	}
	return ctrl, ctrl
}

// tunable is what adopt needs of a serial sorter-backed estimator.
type tunable[T Value] interface {
	Stats() Stats
	SetTuner(pipeline.Tuner[T])
}

// adopt finishes a serial estimator: its pipeline gets the tuner cfg asks
// for, and the engine tracks it for Stats.
func (e *Engine[T]) adopt(fam Family, est tunable[T], cfg estimatorConfig, tuneWindow bool) {
	t, ctrl := e.tuner(cfg, tuneWindow)
	if t != nil {
		est.SetTuner(t)
	}
	e.register(tracker[T]{kind: fam.String(), est: est, ctrl: ctrl})
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
	return e.newFrequency(eps, resolve(opts))
}

func (e *Engine[T]) newFrequency(eps float64, cfg estimatorConfig) *FrequencyEstimator[T] {
	est := frequency.NewEstimator(eps, e.newBackendSorter(), cfg.pipeline()...)
	e.adopt(FamilyFrequency, est, cfg, true)
	return est
}

// NewQuantileEstimator returns an eps-approximate quantile estimator backed
// by this engine's sorter. The summary budgets its error by the depth it
// observes, so the bound holds at any stream length (DESIGN.md §11).
func (e *Engine[T]) NewQuantileEstimator(eps float64, opts ...EstimatorOption) *QuantileEstimator[T] {
	return e.newQuantile(eps, resolve(opts))
}

func (e *Engine[T]) newQuantile(eps float64, cfg estimatorConfig) *QuantileEstimator[T] {
	est := quantile.NewEstimator(eps, 0, e.newBackendSorter(), cfg.pipeline()...)
	e.adopt(FamilyQuantile, est, cfg, true)
	return est
}

// sharding is a parallel family's resolved construction plan: the sharded
// layer's typed configuration, plus the tuning state Engine.Stats reports —
// shard 0's controller (all shards see statistically identical substreams)
// and the shard-count scaler, either nil when that axis is static.
type sharding[T Value] struct {
	shard.Config[T]
	ctrl   *adaptive.Controller[T]
	scaler *adaptive.Scaler
}

// sharding resolves cfg for a parallel family: batch size and pipeline
// options pass through, an elastic count installs a Scaler, and a tuned
// configuration installs tuner as the per-shard factory. Shard 0's tuner is
// built here and handed out by the factory's first call (the sharded
// constructor builds shard 0 first), so its controller is in hand for
// telemetry; shard 0 is never retired by a scale-down (the pool removes
// workers from the tail and keeps at least one), so it stays live across any
// rescale schedule. The factory runs under the family's shard lock — at
// construction and again on every elastic scale-up — so its calls never
// overlap.
func (e *Engine[T]) sharding(cfg estimatorConfig) sharding[T] {
	s := sharding[T]{Config: shard.Config[T]{Batch: cfg.batch, Pipeline: cfg.pipeline()}}
	if cfg.elastic {
		s.scaler = adaptive.NewScaler(shard.ElasticCap())
		s.Rescaler = s.scaler
	}
	first, ctrl := e.tuner(cfg, true)
	if first == nil {
		return s
	}
	s.ctrl = ctrl
	s.NewTuner = func() pipeline.Tuner[T] {
		if t := first; t != nil {
			first = nil
			return t
		}
		t, _ := e.tuner(cfg, true)
		return t
	}
	return s
}

// NewParallelQuantileEstimator returns an eps-approximate quantile
// estimator that partitions ingestion across `shards` goroutine workers
// (shards <= 0 selects runtime.GOMAXPROCS(0)), each with its own sorter
// instance of this engine's backend. Per-shard summaries carry an eps/2
// budget and queries merge them, so answers stay eps-approximate; with one
// shard the output is bit-identical to NewQuantileEstimator. Call Flush to
// make buffered values queryable and Close when ingestion ends.
func (e *Engine[T]) NewParallelQuantileEstimator(eps float64, shards int, opts ...EstimatorOption) *ParallelQuantileEstimator[T] {
	return e.newParallelQuantile(eps, shards, e.sharding(resolve(opts)))
}

func (e *Engine[T]) newParallelQuantile(eps float64, shards int, s sharding[T]) *ParallelQuantileEstimator[T] {
	est := shard.NewQuantile(eps, shards, e.newBackendSorter, s.Config)
	e.register(tracker[T]{kind: FamilyParallelQuantile.String(), est: est, ctrl: s.ctrl, scaler: s.scaler})
	return est
}

// NewParallelFrequencyEstimator returns an eps-approximate frequency
// estimator that partitions ingestion across `shards` goroutine workers
// (shards <= 0 selects runtime.GOMAXPROCS(0)), each with its own sorter
// instance of this engine's backend. Lossy-counting undercounts are
// additive across shards, so merged answers keep the serial estimator's
// no-false-negative guarantee; with one shard the output is bit-identical
// to NewFrequencyEstimator.
func (e *Engine[T]) NewParallelFrequencyEstimator(eps float64, shards int, opts ...EstimatorOption) *ParallelFrequencyEstimator[T] {
	return e.newParallelFrequency(eps, shards, e.sharding(resolve(opts)))
}

func (e *Engine[T]) newParallelFrequency(eps float64, shards int, s sharding[T]) *ParallelFrequencyEstimator[T] {
	est := shard.NewFrequency(eps, shards, e.newBackendSorter, s.Config)
	e.register(tracker[T]{kind: FamilyParallelFrequency.String(), est: est, ctrl: s.ctrl, scaler: s.scaler})
	return est
}

// NewSlidingFrequency returns an eps-approximate frequency estimator over
// sliding windows of w elements, backed by this engine's sorter.
func (e *Engine[T]) NewSlidingFrequency(eps float64, w int, opts ...EstimatorOption) *SlidingFrequency[T] {
	return e.newSlidingFrequency(eps, w, resolve(opts))
}

func (e *Engine[T]) newSlidingFrequency(eps float64, w int, cfg estimatorConfig) *SlidingFrequency[T] {
	est := window.NewSlidingFrequency(eps, w, e.newBackendSorter(), cfg.pipeline()...)
	e.adopt(FamilySlidingFrequency, est, cfg, false)
	return est
}

// NewSlidingQuantile returns an eps-approximate quantile estimator over
// sliding windows of w elements, backed by this engine's sorter.
func (e *Engine[T]) NewSlidingQuantile(eps float64, w int, opts ...EstimatorOption) *SlidingQuantile[T] {
	return e.newSlidingQuantile(eps, w, resolve(opts))
}

func (e *Engine[T]) newSlidingQuantile(eps float64, w int, cfg estimatorConfig) *SlidingQuantile[T] {
	est := window.NewSlidingQuantile(eps, w, e.newBackendSorter(), cfg.pipeline()...)
	e.adopt(FamilySlidingQuantile, est, cfg, false)
	return est
}

// WithPhis selects the target quantiles a FrugalEstimator tracks, one word
// of state each (default frugal.DefaultPhis).
func WithPhis(phis ...float64) FrugalOption { return frugal.WithPhis(phis...) }

// NewFrugalEstimator returns a frugal-streaming quantile estimator: one
// converging point estimate per tracked target quantile, in one or two
// machine words each — the opposite end of the memory spectrum from the
// summary-based families, with heuristic (not eps-bounded) answers. It uses
// no sorter; it registers with the engine only for Stats reporting.
func (e *Engine[T]) NewFrugalEstimator(opts ...FrugalOption) *FrugalEstimator[T] {
	est := frugal.NewEstimator[T](opts...)
	e.register(tracker[T]{kind: FamilyFrugal.String(), est: est})
	return est
}
