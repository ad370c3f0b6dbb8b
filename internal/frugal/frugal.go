// Package frugal implements the frugal-streaming quantile estimator of Ma,
// Muthukrishnan and Sandler ("Frugal Streaming for Estimating Quantiles: One
// (or two) memory suffices", arXiv:1407.1121): a converging estimate of one
// stream quantile maintained in one or two machine words, with no window, no
// summary, and no sort. It is the opposite end of the memory spectrum from
// the paper's GK stack — a GK summary costs O((1/eps) log(eps N)) entries per
// stream, a frugal tracker costs 9-10 bytes — which is what makes one
// estimator *per key* feasible at massive cardinality (the keyed front-end in
// internal/keyed pools millions of these and promotes only heavy keys to full
// summaries).
//
// The update rule is the paper's Frugal-2U adapted to the generic value
// domain: steps are taken in the order-preserving integer key space of
// sorter.OrderedKey (a monotone bijection, so the phi-quantile of the key
// stream maps back to the phi-quantile of the value stream), and the step
// size self-calibrates to the stream's scale: the control byte carries a
// slow median tracker of bitlen(|v - est|), and each accepted move steps
// 2^(scale-stepShift) keys — a small fixed fraction of the typical
// observation distance, capped below a binade. Scale calibration replaces
// the paper's additive f(step)=1 schedule because the key space is up to
// 2^64 wide: a fixed or run-length adapted step either strands the estimate
// ulps at a time or lets it wander by whole percentiles, while
// distance-derived steps converge from anywhere in the key space and then
// jitter by a fraction of a percentile. The comments on Step, adapt and
// stepSize record the correlation hazards that shaped the rule — every
// statistic of the distance stream that responds faster in one direction
// than the other, or faster than the stream's own sweep period, shows up as
// estimator bias.
//
// Guarantees are correspondingly frugal: the estimate converges toward the
// target quantile on stationary streams and tracks slow drift, but it carries
// no eps rank bound — DESIGN.md §17 develops the error accounting used
// when a frugal estimate seeds a promoted GK summary.
package frugal

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// Packed control-byte layout: low 6 bits hold the scale (the tracker's
// bitlen estimate of the typical key-space observation distance; steps are
// 2^(scale-stepShift) keys), the top 2 bits hold the direction of the last
// accepted move. A zero control byte is the fresh state, so
// zero-initialized slab storage is a valid tracker.
const (
	expMask   = 0x3F
	signFresh = 0x00
	signUp    = 0x40
	signDown  = 0x80
	signMask  = 0xC0
	// maxExp caps the step at 2^62 so key-space arithmetic can never wrap.
	maxExp = 62
)

// unit maps 64 random bits to a uniform float64 in [0, 1).
func unit(rnd uint64) float64 { return float64(rnd>>11) * (1.0 / (1 << 53)) }

// Step advances one frugal tracker by a single observation. est and ctl are
// the tracker's two words of state (current estimate and packed
// exponent+direction), phi is the target quantile in [0, 1], and rnd supplies
// the random bits for the rank gate. It returns the updated state.
//
// The rule follows Frugal-2U: when v is above the estimate, move up with
// probability phi; when below, move down with probability 1-phi. At the true
// phi-quantile the expected drift is zero — P(v > est) = 1-phi, so upward
// mass (1-phi)·phi balances downward mass phi·(1-phi) — and anywhere else the
// drift points toward the quantile. Moves step by 2^(scale-stepShift) in
// ordered-key space, where scale is the control byte's slow median tracker
// of bitlen(|v - est|) — each step covers a small fixed fraction of the
// typical observation distance. When the remaining distance fits inside one
// step the estimate adopts the observation outright.
func Step[T sorter.Value](est T, ctl uint8, v T, phi float64, rnd uint64) (T, uint8) {
	if ctl&signMask == signFresh {
		// First observation: adopt it as the estimate. Exponent starts at 0.
		return v, signUp
	}
	vk, ek := sorter.OrderedKey(v), sorter.OrderedKey(est)
	if vk == ek {
		// A zero distance still informs the scale (bitlen 0 decays it).
		// Censoring repeats would inflate the scale median to the inter-mass
		// distance on discrete streams, unsticking the estimate from exactly
		// the point masses it should pin to.
		return est, ctl&signMask | adapt(ctl&expMask, 0, rnd&adaptMask == 0)
	}
	// Fold this observation's distance into the scale estimate before the
	// rank gate, so the scale sees every observation regardless of side or
	// gate outcome. Adapting only on accepted moves would correlate the step
	// size with the move direction — for an off-center phi the rare far-side
	// moves carry systematically larger distances (in a signed float key
	// space, crossing zero spans nearly the whole key range), and a
	// direction-correlated step size biases the drift toward the heavy side
	// no matter what the gate probabilities say.
	var d uint64
	up := vk > ek
	if up {
		d = vk - ek
	} else {
		d = ek - vk
	}
	// This move steps at the PRE-update scale; the adapted scale only feeds
	// future moves. Stepping at the scale the current distance just pushed
	// would re-correlate step size with move direction — a far-side
	// observation bumps the scale and then steps double, a near-side one
	// decays it and steps half, and that factor-two size asymmetry cancels
	// the rank gates' count asymmetry instead of letting it drive the
	// estimate toward the target quantile.
	step := stepSize(ctl & expMask)
	scale := adapt(ctl&expMask, d, rnd&adaptMask == 0)
	if up {
		if unit(rnd) >= phi {
			return est, ctl&signMask | scale
		}
		if step < d {
			return sorter.FromOrderedKey[T](ek + step), signUp | scale
		}
		// The whole remaining distance is within one step: adopt the
		// observation.
		return v, signUp | scale
	}
	if unit(rnd) >= 1-phi {
		return est, ctl&signMask | scale
	}
	if step < d {
		return sorter.FromOrderedKey[T](ek - step), signDown | scale
	}
	return v, signDown | scale
}

// ValidCtl reports whether a packed control byte is structurally valid: step
// exponent within maxExp and direction bits not both set. Wire decoders of
// embedded tracker state (this package's and the keyed container's) share it.
func ValidCtl(ctl uint8) bool { return ctl&expMask <= maxExp && ctl&signMask != signMask }

// Fresh reports whether a control byte is the fresh (never-stepped) state.
func Fresh(ctl uint8) bool { return ctl&signMask == signFresh }

// adapt folds one observation's distance into the tracker's scale estimate —
// a slow median tracker of the bitlen(|v - est|) distribution. Two regimes:
//
//   - Gross undershoot (b exceeds scale by adaptJump or more — a fresh or
//     badly miscalibrated tracker): raise scale by half the gap immediately,
//     so calibration from scale 0 takes a handful of observations.
//   - Otherwise: move one toward b, and only on a tick (one observation in
//     adaptMask+1, drawn from rnd bits the rank gate does not consume).
//
// The slow symmetric walk is deliberate twice over. Symmetric, because the
// far-side distances an off-center tracker sees are systematically enormous
// (in the sign-log float key space any cross-zero distance spans nearly the
// whole key range), so an estimator that chases large distances faster than
// it forgets them ends up direction-correlated — and a step size correlated
// with move direction biases the drift toward the heavy side no matter what
// the rank gates say. Slow, because a scale that tracks the current
// distance closely makes every step proportional to that distance, which
// drags the tracker toward an expectile instead of the quantile; sorted or
// periodic streams sweep their distances over hundreds of observations, and
// the scale must stay a property of the whole stream, not of the sweep
// phase. The fast-raise regime never fires at equilibrium (distance bitlen
// swings stay well inside adaptJump bits) and never lowers the scale, so it
// cannot reintroduce either correlation.
func adapt(scale uint8, d uint64, tick bool) uint8 {
	b := uint8(bits.Len64(d))
	if b > maxExp {
		b = maxExp
	}
	if b >= scale+adaptJump {
		return scale + (b-scale+1)/2
	}
	if !tick {
		return scale
	}
	switch {
	case b > scale:
		scale++
	case b < scale:
		scale--
	}
	return scale
}

// adaptMask subsamples the ±1 scale walk to one observation in 64; adaptJump
// is the undershoot gap that triggers immediate recalibration instead.
const (
	adaptMask = 0x1FF
	adaptJump = 16
)

// stepShift sets the step size to 2^(scale-stepShift) — 1/2048 of the
// tracker's typical observation distance. Small enough that equilibrium
// jitter is a fraction of a percentile, large enough that convergence from
// anywhere in the key space takes a few thousand accepted moves.
const stepShift = 11

// stepCap bounds the step exponent at 2^48 keys — 1/16 of a float64 binade,
// a ~4% relative move. Typical distances in a sign-crossing float stream
// are dominated by the key-space gulf around zero (half the key range), and
// an uncapped 1/256 of that is still a many-binade teleport; the cap keeps
// every move local in value space so the rank gates, not the key-space
// geometry, decide where the tracker settles.
const stepCap = 48

// stepSize is the key-space step at the given scale, at least one ulp.
func stepSize(scale uint8) uint64 {
	if scale <= stepShift {
		return 1
	}
	e := scale - stepShift
	if e > stepCap {
		e = stepCap
	}
	return uint64(1) << e
}

// DefaultPhis is the tracker bank a standalone estimator maintains when the
// caller does not pick target quantiles: the probes the rest of the module's
// tooling reports.
var DefaultPhis = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// Estimator is a bank of frugal trackers over one stream, one tracker per
// target quantile. It implements the same surface as the other estimator
// families (Process/ProcessSlice/Flush/Close/Count/Stats/Snapshot) so callers
// can program against the root Estimator interface, but its answers are
// heuristic point estimates, not eps-bounded ranks — and its footprint is a
// few words total, not a summary.
//
// One writer and any number of query goroutines may use an Estimator
// concurrently.
type Estimator[T sorter.Value] struct {
	mu     sync.Mutex
	phis   []float64 // ascending, deduplicated
	ests   []T
	ctls   []uint8
	n      int64
	rng    *stream.RNG // one generator for every tracker: frugal states carry no per-stream randomness
	closed bool
}

// Option configures an Estimator.
type Option func(*config)

type config struct {
	phis []float64
	seed uint64
}

// WithPhis selects the target quantiles to track, one word of state each.
// Values must lie in [0, 1]; duplicates collapse.
func WithPhis(phis ...float64) Option {
	return func(c *config) { c.phis = phis }
}

// WithSeed seeds the randomized rank gates. Estimates are deterministic for a
// fixed seed and ingestion order.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// NewEstimator returns a frugal estimator tracking DefaultPhis (or the
// WithPhis override).
func NewEstimator[T sorter.Value](opts ...Option) *Estimator[T] {
	cfg := config{phis: DefaultPhis, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	phis := append([]float64(nil), cfg.phis...)
	sort.Float64s(phis)
	kept := phis[:0]
	for i, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			panic(fmt.Sprintf("frugal: phi %v out of [0, 1]", phi))
		}
		if i > 0 && phi == kept[len(kept)-1] {
			continue
		}
		kept = append(kept, phi)
	}
	if len(kept) == 0 {
		panic("frugal: no target quantiles")
	}
	return &Estimator[T]{
		phis: kept,
		ests: make([]T, len(kept)),
		ctls: make([]uint8, len(kept)),
		rng:  stream.NewRNG(cfg.seed),
	}
}

// Phis reports the tracked target quantiles, ascending.
func (e *Estimator[T]) Phis() []float64 { return append([]float64(nil), e.phis...) }

// Count reports the number of stream elements processed.
func (e *Estimator[T]) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Process consumes one stream element. After Close it returns an error
// wrapping pipeline.ErrClosed.
func (e *Estimator[T]) Process(v T) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("frugal: %w", pipeline.ErrClosed)
	}
	e.step(v)
	return nil
}

// ProcessSlice consumes a batch of stream elements; the caller may reuse the
// slice immediately. After Close it returns an error wrapping
// pipeline.ErrClosed.
func (e *Estimator[T]) ProcessSlice(data []T) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("frugal: %w", pipeline.ErrClosed)
	}
	for _, v := range data {
		e.step(v)
	}
	return nil
}

// step advances every tracker by one observation; the caller holds the lock.
func (e *Estimator[T]) step(v T) {
	e.n++
	for i := range e.phis {
		e.ests[i], e.ctls[i] = Step(e.ests[i], e.ctls[i], v, e.phis[i], e.rng.Uint64())
	}
}

// Flush implements the estimator surface; frugal state has no buffer to
// flush, so it is a no-op that still reports closure misuse consistently.
func (e *Estimator[T]) Flush() error { return nil }

// Close stops ingestion; the estimator remains queryable. Idempotent.
func (e *Estimator[T]) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// Stats implements the estimator surface. Frugal updates never sort, merge,
// or compress, so the unified pipeline telemetry is identically zero — the
// honest report for an estimator whose whole point is doing almost nothing
// per element.
func (e *Estimator[T]) Stats() pipeline.Stats { return pipeline.Stats{} }

// Estimate returns the current estimate of the tracker whose target is
// nearest phi, and that tracker's target. ok is false on an empty stream.
func (e *Estimator[T]) Estimate(phi float64) (v T, target float64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return v, 0, false
	}
	i := nearestPhi(e.phis, phi)
	return e.ests[i], e.phis[i], true
}

// nearestPhi returns the index of the tracked target closest to phi (lower
// index on ties). phis is ascending and non-empty.
func nearestPhi(phis []float64, phi float64) int {
	i := sort.SearchFloat64s(phis, phi)
	if i == len(phis) {
		return i - 1
	}
	if i > 0 && phi-phis[i-1] <= phis[i]-phi {
		return i - 1
	}
	return i
}

// Snapshot is an immutable point-in-time view of a frugal estimator: a copy
// of the tracker bank. It is safe for concurrent use and implements
// pipeline.View, answering Quantile from the nearest tracked target —
// a heuristic point estimate, not an eps-bounded rank.
type Snapshot[T sorter.Value] struct {
	phis []float64
	ests []T
	ctls []uint8
	n    int64
}

// Snapshot returns an immutable view of the tracker bank. The view never
// sees ingestion that happens after this call.
func (e *Estimator[T]) Snapshot() pipeline.View[T] {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Snapshot[T]{
		phis: e.phis, // immutable after construction
		ests: append([]T(nil), e.ests...),
		ctls: append([]uint8(nil), e.ctls...),
		n:    e.n,
	}
}

// Count reports the stream length the snapshot covers.
func (s *Snapshot[T]) Count() int64 { return s.n }

// Size reports the number of trackers — the snapshot's whole footprint in
// state words.
func (s *Snapshot[T]) Size() int { return len(s.phis) }

// Phis reports the tracked target quantiles, ascending.
func (s *Snapshot[T]) Phis() []float64 { return append([]float64(nil), s.phis...) }

// Estimate returns the estimate of the tracker whose target is nearest phi,
// and that tracker's target. ok is false on an empty stream.
func (s *Snapshot[T]) Estimate(phi float64) (v T, target float64, ok bool) {
	if s.n == 0 {
		return v, 0, false
	}
	i := nearestPhi(s.phis, phi)
	return s.ests[i], s.phis[i], true
}

// Quantile implements pipeline.View: the estimate of the nearest tracked
// target. ok is false on an empty stream.
func (s *Snapshot[T]) Quantile(phi float64) (T, bool) {
	v, _, ok := s.Estimate(phi)
	return v, ok
}

// HeavyHitters implements pipeline.View; frugal trackers do not answer
// frequency queries.
func (s *Snapshot[T]) HeavyHitters(float64) ([]pipeline.Item[T], bool) { return nil, false }

// Frequency implements pipeline.View; frugal trackers do not answer
// point-frequency queries.
func (s *Snapshot[T]) Frequency(T) (int64, bool) { return 0, false }

// ErrMismatchedPhis is wrapped by MergeSnapshots when two snapshots track
// different target-quantile banks and therefore cannot be combined.
var ErrMismatchedPhis = errors.New("frugal: snapshots track different target quantiles")
