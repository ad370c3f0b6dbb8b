package adaptive

import "sort"

// burst collects one measurement burst: size samples, taken after skipLeft
// observations have been discarded (the ones still carrying the previous
// knob setting's timing), reduced to their lower median.
type burst struct {
	size     int
	samples  []float64
	skipLeft int
}

// add records one observation, honoring the pending discards, and reports
// whether the burst is full.
func (b *burst) add(x float64) bool {
	if b.skipLeft > 0 {
		b.skipLeft--
		return false
	}
	b.samples = append(b.samples, x)
	return len(b.samples) >= b.size
}

// reset empties the burst and discards the next skip observations.
func (b *burst) reset(skip int) { b.samples, b.skipLeft = b.samples[:0], skip }

// statistic reduces the burst to one number: the lower median. One GC
// pause, scheduler preemption, or stale in-flight window in a burst cannot
// move it, unlike the mean — a single inflated sample at a 50µs window
// scale is enough to mis-rank two close candidates.
func (b *burst) statistic() float64 {
	s := append([]float64(nil), b.samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// climb is the one hill-climb machine under Controller (over the sort
// window) and Scaler (over the shard count); each passes its own numbers in
// as constants (DESIGN.md §16 lists them). It climbs one positive
// integer knob against a lower-is-better statistic: from an accepted value,
// double while each trial improves on the accepted statistic by the
// hysteresis margin; on the first regression go to one halving step below
// the accepted value (one move, not a revert then a halve) and keep halving
// while that improves; any other regression reverts to the accepted value
// and ends the search. Trials never leave [min, max]. Steady state keeps an
// EWMA of the statistic and, every settle observations, asks for a fresh
// search if it has degraded past reprobeFactor times the accepted one.
type climb struct {
	min, max   int
	hysteresis float64 // relative improvement a trial must show to be accepted
	settle     int     // steady-state observations between regression checks

	knob  int     // value currently commanded
	prev  int     // accepted value a regressed trial falls back to
	dir   int     // +1 doubling, -1 halving
	base  float64 // statistic at the accepted value
	ewma  float64 // steady-state EWMA of the statistic
	since int     // steady-state observations since the last check
}

// reprobeFactor is the steady-state degradation, as a multiple of the
// accepted measurement, that asks for a fresh search.
const reprobeFactor = 1.5

// accept makes the current knob value the accepted one, measured at stat.
func (c *climb) accept(stat float64) { c.base, c.ewma = stat, stat }

// try moves the knob to next, remembering the value to fall back to, and
// reports false (moving nothing) when next is out of bounds.
func (c *climb) try(next int) bool {
	if next < c.min || next > c.max || next == c.knob {
		return false
	}
	c.prev, c.knob = c.knob, next
	return true
}

// begin starts a search upward from the accepted knob value and reports
// whether the first doubling trial was in bounds.
func (c *climb) begin() bool {
	c.dir = +1
	return c.try(c.knob * 2)
}

// step consumes the statistic of the trial in progress. moved reports that
// the knob changed (to the next trial, or back to the accepted value), done
// that the search is over.
func (c *climb) step(stat float64) (moved, done bool) {
	if stat < c.base*(1-c.hysteresis) {
		c.accept(stat)
		next := c.knob * 2
		if c.dir < 0 {
			next = c.knob / 2
		}
		if c.try(next) {
			return true, false
		}
		return false, true
	}
	accepted := c.prev
	if c.dir > 0 && accepted/2 >= c.min {
		c.dir = -1
		c.knob = accepted / 2
		return true, false
	}
	moved = c.knob != accepted
	c.knob = accepted
	return moved, true
}

// observe folds one steady-state measurement into the EWMA (alpha 0.2:
// smooth enough to ride out one slow observation, responsive enough to
// notice a regime change within tens) and reports whether this is a check
// that found the accepted choice degraded.
func (c *climb) observe(stat float64) (degraded bool) {
	c.ewma = 0.8*c.ewma + 0.2*stat
	if c.since++; c.since < c.settle {
		return false
	}
	c.since = 0
	return c.base > 0 && c.ewma > reprobeFactor*c.base
}
