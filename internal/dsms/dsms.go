// Package dsms is a miniature data stream management system around the
// library's estimators: continuous queries are registered once and then
// evaluated against an unbounded arriving stream, the usage model the
// paper's introduction describes. When arrivals outpace the configured
// per-tick processing budget the executor load-sheds — "dropping excess
// data items", the DSMS behaviour the paper cites as the motivation for
// hardware-accelerated stream processing — and accounts for every shed
// element, so experiments can quantify how a faster (GPU) backend reduces
// shedding.
package dsms

import (
	"fmt"

	"gpustream/internal/frequency"
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/sorter"
	"gpustream/internal/window"
)

// QueryKind identifies a continuous query type.
type QueryKind int

const (
	// FrequencyAbove reports items above a support threshold.
	FrequencyAbove QueryKind = iota
	// QuantileAt reports the phi-quantile.
	QuantileAt
	// SlidingFrequencyAbove is FrequencyAbove over the last W elements.
	SlidingFrequencyAbove
	// SlidingQuantileAt is QuantileAt over the last W elements.
	SlidingQuantileAt
)

// QuerySpec declares one continuous query.
type QuerySpec struct {
	Kind   QueryKind
	Eps    float64
	Param  float64 // support (frequency kinds) or phi (quantile kinds)
	Window int     // sliding kinds only
	Name   string  // label in results
}

// Result is one evaluated query snapshot.
type Result struct {
	Name     string
	Kind     QueryKind
	Items    []frequency.Item[float32] // frequency kinds
	WItems   []window.Item[float32]    // sliding frequency kind
	Quantile float32                   // quantile kinds
	N        int64                     // elements the answer covers
}

// Stats accounts for executor behaviour.
type Stats struct {
	Ingested int64 // elements accepted
	Shed     int64 // elements dropped by load shedding
	Ticks    int64 // Push calls
}

// estimator is what the executor needs of a registered query's estimator:
// ingestion, and a view every answer is read from.
type estimator interface {
	ProcessSlice([]float32) error
	Snapshot() pipeline.View[float32]
}

// Executor runs registered continuous queries over an arriving stream.
type Executor struct {
	srt    sorter.Sorter[float32]
	budget int // max elements processed per Push; 0 = unlimited
	specs  []QuerySpec
	ests   []estimator // ests[i] answers specs[i]
	stats  Stats
}

// NewExecutor returns an executor sorting with s. budget caps the elements
// processed per Push call; arrivals beyond it are shed (0 disables
// shedding).
func NewExecutor(s sorter.Sorter[float32], budget int) *Executor {
	if budget < 0 {
		panic("dsms: negative budget")
	}
	return &Executor{srt: s, budget: budget}
}

// Register adds a continuous query. All queries must be registered before
// the first Push.
func (e *Executor) Register(spec QuerySpec) {
	if e.stats.Ticks > 0 {
		panic("dsms: Register after data arrived")
	}
	if spec.Eps <= 0 || spec.Eps >= 1 {
		panic(fmt.Sprintf("dsms: query %q eps %v out of (0, 1)", spec.Name, spec.Eps))
	}
	var est estimator
	switch spec.Kind {
	case FrequencyAbove:
		est = frequency.NewEstimator(spec.Eps, e.srt)
	case QuantileAt:
		est = quantile.NewEstimator(spec.Eps, 0, e.srt)
	case SlidingFrequencyAbove:
		est = window.NewSlidingFrequency(spec.Eps, spec.Window, e.srt)
	case SlidingQuantileAt:
		est = window.NewSlidingQuantile(spec.Eps, spec.Window, e.srt)
	default:
		panic(fmt.Sprintf("dsms: unknown query kind %d", spec.Kind))
	}
	e.specs = append(e.specs, spec)
	e.ests = append(e.ests, est)
}

// Push delivers one arriving batch. If the batch exceeds the per-tick
// budget the executor keeps a uniform-stride sample of it (classic
// load-shedding) and counts the dropped elements.
func (e *Executor) Push(batch []float32) {
	e.stats.Ticks++
	accepted := batch
	if e.budget > 0 && len(batch) > e.budget {
		kept := make([]float32, 0, e.budget)
		stride := float64(len(batch)) / float64(e.budget)
		for i := 0; i < e.budget; i++ {
			kept = append(kept, batch[int(float64(i)*stride)])
		}
		e.stats.Shed += int64(len(batch) - len(kept))
		accepted = kept
	}
	e.stats.Ingested += int64(len(accepted))
	for _, est := range e.ests {
		// ProcessSlice fails only after Close, and the executor closes none.
		_ = est.ProcessSlice(accepted)
	}
}

// Stats reports executor accounting.
func (e *Executor) Stats() Stats { return e.stats }

// Results evaluates every registered query against the current state,
// each from a snapshot of its estimator. A sliding query's N is the window
// it covers, at most W.
func (e *Executor) Results() []Result {
	out := make([]Result, 0, len(e.specs))
	for i, spec := range e.specs {
		view := e.ests[i].Snapshot()
		r := Result{Name: spec.Name, Kind: spec.Kind, N: view.Count()}
		switch spec.Kind {
		case FrequencyAbove:
			r.Items, _ = view.HeavyHitters(spec.Param)
		case SlidingFrequencyAbove:
			r.WItems, _ = view.HeavyHitters(spec.Param)
		case QuantileAt, SlidingQuantileAt:
			r.Quantile, _ = view.Quantile(spec.Param)
		}
		if spec.Kind == SlidingFrequencyAbove || spec.Kind == SlidingQuantileAt {
			r.N = min(r.N, int64(spec.Window))
		}
		out = append(out, r)
	}
	return out
}
