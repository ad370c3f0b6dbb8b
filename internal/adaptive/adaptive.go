// Package adaptive implements the runtime controller that owns a staged
// pipeline's execution knobs: which sorting backend sorts the windows, and
// how long the windows are. The paper fixes both at configuration time and
// shows the best choice depends on the window length (the CPU/GPU crossover
// of Section 6 sits near n≈16K on the 2004 testbed); the controller makes
// the choice live, per estimator, from the same pipeline.Stats telemetry
// the perfmodel consumes — measured sort nanoseconds per sorted value.
//
// The controller is a pipeline.Tuner: the core calls Retune under its lock
// after every merged window, and the controller answers with the knobs for
// subsequent windows. It is passive — it owns no goroutines and never
// calls back into the core — so attaching one adds no lifecycle.
//
// State machine (see DESIGN.md §15):
//
//	probe  — cycle through every candidate backend for probeWindows
//	         windows each, measuring ns/value; Config.ProbeFirst (the
//	         construction backend) is measured first, then the rest in
//	         ascending order of their closed-form prior at the current
//	         window; a candidate that cannot win is cut off after a
//	         single window (abortFactor). Then commit to the measured
//	         argmin of the bursts' lower medians.
//	window — with the committed backend, run the climb machine (climb.go,
//	         shared with the Scaler) over the window size: doubling, then
//	         one halving step, bounded by the construction window below
//	         and maxWindowFactor times it above. Skipped when
//	         Config.TuneWindow is false (sliding families: the pane size
//	         is query semantics, not an execution knob).
//	conc   — with backend and window committed, measure one burst in the
//	         incumbent execution mode and one with sync<->async flipped,
//	         scored on critical-path time per value (sort + merge +
//	         compress − overlap); commit to the argmin. Skipped unless
//	         Config.TuneAsync. The pipeline applies mode flips between
//	         merged windows only, so any flip schedule is bit-identical
//	         to a fixed mode.
//	steady — hold the choice; when the climb machine's EWMA check finds
//	         ns/value degraded past reprobeFactor times the committed
//	         measurement, re-enter probe (the stream or the host changed).
//
// Correctness is the pipeline's problem, not the controller's, by
// construction: every schedule the controller emits keeps windows at or
// above the window observed at the first Retune — the construction-time
// window of the estimator, i.e. the family's eps floor (or the caller's
// larger override) — and window-boundary knob changes preserve the
// "every value passes through exactly one sorted window" invariant the
// families' error budgets rest on.
package adaptive

import (
	"sort"
	"sync"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// Candidate is one backend the controller may select. Each estimator needs
// its own Candidate set: the sorter built by New is owned by that
// estimator's pipeline and must not be shared.
type Candidate[T sorter.Value] struct {
	// Backend is the canonical backend name ("gpu", "samplesort", ...).
	Backend string
	// New builds the candidate's sorter, called at most once per
	// controller when the candidate is first probed.
	New func() sorter.Sorter[T]
	// Modeled is the closed-form prior: the predicted wall clock of one
	// n-value window sort on the modeled testbed. It orders the probe
	// phase; nil candidates probe last.
	Modeled func(n int) time.Duration
}

// Config selects what the controller tunes. Everything else about it is a
// constant: the numbers below are the values every caller ran with.
type Config struct {
	// TuneWindow enables the window hill-climb phase. Off, the controller
	// adapts the backend only (the sliding families).
	TuneWindow bool
	// TuneAsync enables the concurrency phase: after backend (and window)
	// have settled, the controller measures the incumbent execution mode,
	// flips sync<->async, and commits to whichever moves the stream faster.
	TuneAsync bool
	// ProbeFirst names the backend probed before the modeled order, when it
	// is among the candidates. The engine passes its construction backend:
	// measuring the incumbent first gives the early-abort check a reference,
	// so expensive candidates are cut off after a single window instead of
	// a full burst, and a stream too short to finish probing has already
	// been running the backend it was built with.
	ProbeFirst string
}

const (
	// probeWindows is how many windows each candidate is measured for in
	// the probe phase, each hill-climb trial and each concurrency trial.
	probeWindows = 4
	// hysteresis is the relative improvement a window trial or a mode flip
	// must show to be accepted; it keeps the controller from chasing
	// measurement noise.
	hysteresis = 0.02
	// maxWindowFactor bounds window growth, as a multiple of the
	// construction window.
	maxWindowFactor = 64
	// settleWindows is how many steady-state windows pass between
	// regression checks.
	settleWindows = 64
	// staleWindows is how many windows are discarded after every knob
	// switch on an async pipeline: a switch lands after the merge of window
	// i-1, when window i is already sealed under the previous knobs, and its
	// sort time would be attributed to the new choice. That is at most one
	// window; the second is margin, kept because the constant fixes the
	// controller's knob sequences.
	staleWindows = 2
	// abortFactor is the measured slowdown versus the best candidate
	// completed this round at which a probe burst stops early: a backend
	// this far behind cannot win, so there is no point paying its full burst
	// (the simulated GPU backends cost ~10x the host sorters per window).
	abortFactor = 3.0
)

// Phase names, as exposed in Decision.
const (
	PhaseProbe  = "probe"
	PhaseWindow = "window"
	PhaseConc   = "concurrency"
	PhaseSteady = "steady"
)

// Decision is the controller's externally visible state, surfaced through
// engine stats, streammine -stats and the service's /statsz.
type Decision struct {
	Backend  string `json:"backend"`
	Window   int    `json:"window"`
	Phase    string `json:"phase"`
	Switches int    `json:"switches"`
	// Async is the live execution mode ("sync" or "async"), empty until
	// the first Retune has reported the pipeline's state.
	Async string `json:"async,omitempty"`
	// NsPerValue holds the latest measured sort cost per value for every
	// backend that has been probed so far.
	NsPerValue map[string]float64 `json:"ns_per_value,omitempty"`
}

// Controller implements pipeline.Tuner. One Controller serves exactly one
// pipeline; Decision is safe to call concurrently with Retune.
type Controller[T sorter.Value] struct {
	mu    sync.Mutex
	cands []Candidate[T] // in probe order once started
	cfg   Config

	sorters  []sorter.Sorter[T] // lazily built, index-aligned with cands
	ns       []float64          // latest measured ns/value per candidate, 0 = unmeasured
	cur      int                // candidate currently sorting windows
	win      climb              // the window knob: scheduled value, climb and steady state
	phase    string
	started  bool // first Retune seen, construction window adopted
	switches int

	// Retune reads cumulative Stats; deltas against the previous call give
	// the per-window measurement.
	last pipeline.Stats

	// Concurrency-phase state.
	async     bool    // live execution mode, mirrored from cur each Retune
	concTrial int     // 0 measuring the incumbent mode, 1 measuring the flip
	concBase  float64 // incumbent-mode statistic

	// Measurement burst for the current probe step or trial.
	burst     burst   // per-window ns/value of the current burst
	skip      int     // windows discarded after every knob switch (staleWindows once async)
	roundBest float64 // best statistic completed in the current probe round
}

// New returns a controller choosing among cands. cands must be non-empty;
// one controller per estimator pipeline.
func New[T sorter.Value](cands []Candidate[T], cfg Config) *Controller[T] {
	if len(cands) == 0 {
		panic("adaptive: no candidates")
	}
	return &Controller[T]{
		cands:   append([]Candidate[T](nil), cands...),
		cfg:     cfg,
		sorters: make([]sorter.Sorter[T], len(cands)),
		ns:      make([]float64, len(cands)),
		phase:   PhaseProbe,
		burst:   burst{size: probeWindows},
	}
}

// start adopts the pipeline's construction knobs — its window is the floor
// the estimator's eps guarantee requires, so no schedule goes below it — and
// puts the candidates (no sorter built, nothing measured yet) in probe
// order: ProbeFirst, then the closed-form prior at the adopted window.
func (c *Controller[T]) start(cur pipeline.Knobs[T]) {
	w := cur.Window
	c.win = climb{min: w, max: maxWindowFactor * w, hysteresis: hysteresis, settle: settleWindows, knob: w}
	sort.SliceStable(c.cands, func(a, b int) bool {
		ca, cb := c.cands[a], c.cands[b]
		if first := c.cfg.ProbeFirst; (ca.Backend == first) != (cb.Backend == first) {
			return ca.Backend == first
		}
		if ca.Modeled == nil || cb.Modeled == nil {
			return ca.Modeled != nil // unmodeled candidates probe last
		}
		return ca.Modeled(w) < cb.Modeled(w)
	})
	c.started = true
	c.beginProbe()
}

// beginProbe (re)starts the probe phase at the head of the probe order.
func (c *Controller[T]) beginProbe() {
	c.phase, c.cur, c.roundBest = PhaseProbe, 0, 0
	c.burst.reset(c.skip)
}

// Retune implements pipeline.Tuner. It runs under the core lock.
func (c *Controller[T]) Retune(st pipeline.Stats, cur pipeline.Knobs[T]) (pipeline.Knobs[T], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	dSort := st.Sort - c.last.Sort
	dBusy := st.Total() - c.last.Total() // sort + merge + compress
	dOverlap := st.Overlap - c.last.Overlap
	dVals := st.SortedValues - c.last.SortedValues
	c.last = st
	c.async = cur.Async == pipeline.AsyncOn

	// An async pipeline reports MaxInFlight > 0 from its first window on.
	if st.MaxInFlight > 0 {
		c.skip = staleWindows
	}

	if !c.started {
		c.start(cur)
		// The construction sorter is not necessarily a candidate's
		// instance; switch to the first probe candidate immediately.
		return c.knobs(), true
	}
	if dVals <= 0 {
		return pipeline.Knobs[T]{}, false
	}
	perValue := float64(dSort.Nanoseconds()) / float64(dVals)
	switch c.phase {
	case PhaseSteady:
		return c.steadyStep(perValue)
	case PhaseConc:
		// The mode decision is about the whole pipeline's critical path,
		// not just the sort: busy time across all three stages minus the
		// overlap the executor hid. Sync scores sort+merge+compress; async
		// scores the same work minus what it ran concurrently.
		perValue = float64((dBusy - dOverlap).Nanoseconds()) / float64(dVals)
	}

	// The other three phases decide on full bursts; a probe burst also ends
	// early on a candidate that cannot win (abortFactor).
	full := c.burst.add(perValue)
	if c.phase == PhaseProbe && len(c.burst.samples) > 0 && c.roundBest > 0 && perValue > abortFactor*c.roundBest {
		full = true
	}
	if !full {
		return pipeline.Knobs[T]{}, false
	}
	stat := c.burst.statistic()
	c.burst.reset(c.skip)
	switch c.phase {
	case PhaseProbe:
		return c.probeStep(stat)
	case PhaseWindow:
		return c.windowStep(stat)
	default:
		return c.concStep(stat)
	}
}

// settle leaves the backend/window phases: into the concurrency phase when
// enabled, else straight to steady state. The concurrency phase starts by
// measuring the incumbent mode, so no knob change is needed on entry (and
// Retune has just started a fresh burst).
func (c *Controller[T]) settle() {
	c.phase = PhaseSteady
	if c.cfg.TuneAsync {
		c.phase, c.concTrial = PhaseConc, 0
	}
}

// concStep runs the concurrency phase: one burst in the incumbent execution
// mode, one in the flipped mode, commit to the measured argmin. The probe
// order is the modeled-cost order in miniature — the incumbent was chosen by
// everything measured so far, so it is the reference the flip must beat by
// the hysteresis margin.
func (c *Controller[T]) concStep(stat float64) (pipeline.Knobs[T], bool) {
	if c.concTrial == 0 {
		c.concBase = stat
		c.concTrial = 1
		return c.flip(), true
	}
	c.phase = PhaseSteady
	if stat < c.concBase*(1-hysteresis) {
		// The flipped mode (already active) wins; hold it.
		return pipeline.Knobs[T]{}, false
	}
	return c.flip(), true
}

// flip materializes the current backend/window choice with the execution
// mode opposite to the live one.
func (c *Controller[T]) flip() pipeline.Knobs[T] {
	c.switches++
	k := c.knobs()
	k.Async = pipeline.AsyncOn
	if c.async {
		k.Async = pipeline.AsyncOff
	}
	return k
}

// knobs materializes the controller's current choice, building the
// candidate's sorter on first use.
func (c *Controller[T]) knobs() pipeline.Knobs[T] {
	if c.sorters[c.cur] == nil {
		c.sorters[c.cur] = c.cands[c.cur].New()
	}
	return pipeline.Knobs[T]{Sorter: c.sorters[c.cur], Window: c.win.knob}
}

// probeStep records the current candidate's burst statistic and moves to the
// next candidate, or commits to the measured argmin after the last.
func (c *Controller[T]) probeStep(stat float64) (pipeline.Knobs[T], bool) {
	c.ns[c.cur] = stat
	if c.roundBest == 0 || stat < c.roundBest {
		c.roundBest = stat
	}
	if c.cur+1 < len(c.cands) {
		c.cur++
		c.switches++
		return c.knobs(), true
	}
	// Probe complete: commit to the measured argmin, earliest probed on ties.
	best := 0
	for i := range c.cands {
		if c.ns[i] > 0 && (c.ns[best] == 0 || c.ns[i] < c.ns[best]) {
			best = i
		}
	}
	if best != c.cur {
		c.switches++
	}
	c.cur = best
	c.win.accept(c.ns[best])
	if c.cfg.TuneWindow && c.win.begin() {
		c.phase = PhaseWindow
	} else {
		c.settle()
	}
	return c.knobs(), true
}

// windowStep feeds one trial's burst statistic to the window climb.
func (c *Controller[T]) windowStep(stat float64) (pipeline.Knobs[T], bool) {
	moved, done := c.win.step(stat)
	if done {
		c.settle()
	}
	if !moved {
		return pipeline.Knobs[T]{}, false
	}
	return c.knobs(), true
}

func (c *Controller[T]) steadyStep(perValue float64) (pipeline.Knobs[T], bool) {
	degraded := c.win.observe(perValue)
	c.ns[c.cur] = c.win.ewma
	if !degraded {
		return pipeline.Knobs[T]{}, false
	}
	// The committed choice degraded: measure the field again.
	c.switches++
	c.beginProbe()
	return c.knobs(), true
}

// Decision reports the controller's current choice. Safe for concurrent
// use with Retune.
func (c *Controller[T]) Decision() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := Decision{
		Backend:  c.cands[c.cur].Backend,
		Window:   c.win.knob,
		Phase:    c.phase,
		Switches: c.switches,
	}
	if c.started {
		d.Async = "sync"
		if c.async {
			d.Async = "async"
		}
	}
	for i, n := range c.ns {
		if n > 0 {
			if d.NsPerValue == nil {
				d.NsPerValue = make(map[string]float64, len(c.ns))
			}
			d.NsPerValue[c.cands[i].Backend] = n
		}
	}
	return d
}

// pinned is the do-nothing tuner: it exercises the whole retune call path
// but never changes a knob, so a pinned run is bit-identical to the static
// configuration it was constructed with.
type pinned[T sorter.Value] struct{}

func (pinned[T]) Retune(pipeline.Stats, pipeline.Knobs[T]) (pipeline.Knobs[T], bool) {
	return pipeline.Knobs[T]{}, false
}

// Pinned returns a tuner that never switches anything — the bit-identity
// baseline the test suite compares controller-driven runs against.
func Pinned[T sorter.Value]() pipeline.Tuner[T] { return pinned[T]{} }

var _ pipeline.Tuner[float32] = (*Controller[float32])(nil)
