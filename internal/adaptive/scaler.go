package adaptive

// Scaler is the shard-count sibling of Controller: where the Controller
// owns one pipeline's sorter/window/mode knobs through the Tuner surface,
// the Scaler owns a sharded estimator's worker count through the
// shard.Rescaler surface (satisfied structurally — this package does not
// import internal/shard). The family calls Observe after every dispatched
// batch; the Scaler measures throughput as wall clock per ingested value
// between observations and runs the climb machine of climb.go over the
// shard count: double while it helps, then one halving step, then hold with
// an EWMA regression check that re-enters the climb on degradation.
// Rescales only ever land between batches, where the pool is quiescent, so
// the merge-based error budgets (scale-up shards start at the merge-safe
// eps/2 budget, scale-down folds a drained shard's snapshot) hold under any
// schedule.

import (
	"strconv"
	"sync"
	"time"
)

const (
	// scalerBurst is the number of batches in each measurement burst.
	scalerBurst = 6
	// scalerHysteresis is the relative improvement a trial count must show
	// to be accepted (rescaling moves summary state, so it takes a larger
	// win than a sorter swap to justify).
	scalerHysteresis = 0.05
	// scalerSettle is how many steady-state bursts pass between regression
	// checks: about 64 batches' worth.
	scalerSettle = 64/scalerBurst + 1
	// skipBatches is how many observations are discarded after every
	// rescale: the batch mid-flight during the transition plus one refill
	// of the worker channels carry the old count's timing.
	skipBatches = 2
)

// ScalerDecision is the Scaler's externally visible state, surfaced through
// engine stats, streammine -stats and the service's /statsz.
type ScalerDecision struct {
	Shards   int    `json:"shards"`
	Phase    string `json:"phase"`
	Rescales int    `json:"rescales"`
	// NsPerValue holds the latest measured wall clock per value for every
	// shard count tried so far, keyed by the decimal count.
	NsPerValue map[string]float64 `json:"ns_per_value,omitempty"`
}

// Scaler hill-climbs a sharded estimator's worker count. One Scaler serves
// exactly one estimator; Decision is safe to call concurrently with Observe.
type Scaler struct {
	mu  sync.Mutex
	now func() time.Time // the clock Observe reads; time.Now outside tests

	started  bool
	count    climb // the shard-count knob: commanded value, climb and steady state
	phase    string
	rescales int
	ns       map[int]float64 // latest statistic per shard count
	burst    burst           // per-batch ns/value of the current burst

	lastVals int64
	lastAt   time.Time
}

// NewScaler returns a shard-count controller bounded by 1 and maxShards
// (shard.ElasticCap, which Spec.Validate's memory bound counts too). The
// first Observe adopts the estimator's construction count as the climb's
// starting point.
func NewScaler(maxShards int) *Scaler { return newScalerAt(time.Now, maxShards) }

// newScalerAt is NewScaler on a scripted clock, the seam the table tests
// drive throughput curves through.
func newScalerAt(now func() time.Time, maxShards int) *Scaler {
	return &Scaler{
		now:   now,
		count: climb{min: 1, max: maxShards, hysteresis: scalerHysteresis, settle: scalerSettle},
		phase: PhaseProbe,
		ns:    make(map[int]float64),
		burst: burst{size: scalerBurst},
	}
}

// Observe implements the shard package's Rescaler surface. totalValues is
// the estimator's cumulative ingested count and shards its live worker
// count; the return value is the desired count, 0 to keep it. Observe is
// cheap (one clock read and a few comparisons) — it runs on the ingestion
// path once per dispatched batch.
func (s *Scaler) Observe(totalValues int64, shards int) int {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	dVals, dWall := totalValues-s.lastVals, now.Sub(s.lastAt)
	s.lastVals, s.lastAt = totalValues, now
	if !s.started {
		s.started = true
		s.count.knob = min(max(shards, s.count.min), s.count.max)
		if s.count.knob != shards {
			s.rescales++
			return s.count.knob
		}
		return 0
	}
	if dVals <= 0 || dWall <= 0 {
		return 0
	}
	if !s.burst.add(float64(dWall.Nanoseconds()) / float64(dVals)) {
		return 0
	}
	stat := s.burst.statistic()
	s.burst.reset(0)
	s.ns[s.count.knob] = stat

	moved := false
	switch s.phase {
	case PhaseProbe:
		// First burst at the live count: becomes the climb base.
		s.count.accept(stat)
		s.phase = PhaseWindow
		moved = s.count.begin()
	case PhaseWindow:
		var done bool
		if moved, done = s.count.step(stat); done {
			s.phase = PhaseSteady
		}
	default:
		if s.count.observe(stat) {
			s.phase = PhaseProbe
		}
		s.ns[s.count.knob] = s.count.ewma
	}
	if !moved {
		return 0
	}
	s.rescales++
	s.burst.reset(skipBatches)
	return s.count.knob
}

// Decision reports the Scaler's current choice. Safe for concurrent use
// with Observe.
func (s *Scaler) Decision() ScalerDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := ScalerDecision{Shards: s.count.knob, Phase: s.phase, Rescales: s.rescales}
	for n, v := range s.ns {
		if d.NsPerValue == nil {
			d.NsPerValue = make(map[string]float64, len(s.ns))
		}
		d.NsPerValue[strconv.Itoa(n)] = v
	}
	return d
}
