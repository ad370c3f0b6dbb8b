package window

import (
	"fmt"
	"math"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// PaneSize derives the pane length from eps and W, ceil(eps*W/2) clamped to
// [1, W]: the window every sliding estimator sorts.
func PaneSize(eps float64, w int) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("window: eps %v out of (0, 1)", eps))
	}
	if w <= 0 {
		panic("window: window size must be positive")
	}
	pane := int(math.Ceil(eps * float64(w) / 2))
	if pane < 1 {
		pane = 1
	}
	if pane > w {
		pane = w
	}
	return pane
}

// checkSupport panics unless s is a support threshold in [0, 1].
func checkSupport(s float64) {
	if s < 0 || s > 1 {
		panic(fmt.Sprintf("window: support %v out of [0, 1]", s))
	}
}

// checkSpan panics unless span is a query window in (0, w].
func checkSpan(span, w int) {
	if span <= 0 || span > w {
		panic(fmt.Sprintf("window: query window %d out of (0, %d]", span, w))
	}
}

// shell is the ingest surface promoted into the sliding estimators; the
// unexported alias keeps the embedded field off the exported API.
type shell[T sorter.Value] = pipeline.Ingest[T]

// sliding is what the two sliding families share: the ingest shell over
// the pane pipeline, the query parameters eps and W, and the ring of sealed
// panes with its expiry bound. The pane representation P, the sink that
// seals a sorted pane into one, and everything query-side stay per family.
//
// Process, ProcessSlice, Flush, Close, Count, Stats, SetTuner, Knobs and
// Async are promoted from the shell (Knobs reports the pane size as the
// window). A tuner adapts the backend only: the pane size is query
// semantics — it fixes the eps*W error split — so the engine configures
// window tuning off for these families.
type sliding[T sorter.Value, P any] struct {
	shell[T]
	eps   float64
	w     int
	core  *pipeline.Core[T] // the lock-side API the sinks and query paths use
	panes []P               // oldest first
}

// init builds the pane pipeline: panes of PaneSize(eps, w) elements sorted
// by srt and sealed by seal. Of the pipeline options only WithAsync applies;
// a window override is ignored, the pane size being fixed by eps and W.
func (s *sliding[T, P]) init(eps float64, w int, srt sorter.Sorter[T], seal func([]T), opts []pipeline.Option) {
	s.eps, s.w = eps, w
	s.core = pipeline.NewStagedCore(PaneSize(eps, w), srt, seal)
	s.shell = pipeline.IngestOf(s.core)
	if pipeline.Resolve(opts).Async {
		s.core.StartAsync()
	}
}

// Eps reports the configured error bound.
func (s *sliding[T, P]) Eps() float64 { return s.eps }

// WindowSize reports W.
func (s *sliding[T, P]) WindowSize() int { return s.w }

// PaneSize reports the pane length.
func (s *sliding[T, P]) PaneSize() int { return s.shell.WindowSize() }

// SortedValues reports how many values have passed through the sorter.
func (s *sliding[T, P]) SortedValues() int64 { return s.Stats().SortedValues }

// Panes reports the number of retained panes.
func (s *sliding[T, P]) Panes() int {
	s.core.Lock()
	defer s.core.Unlock()
	s.core.BarrierLocked()
	return len(s.panes)
}

// expireLocked trims the ring to the panes needed to cover W elements
// beyond the buffer and returns the expired ones, oldest first. Caller
// holds the core lock (the sinks do).
func (s *sliding[T, P]) expireLocked() []P {
	pane := s.core.WindowSizeLocked()
	maxPanes := (s.w + pane - 1) / pane
	if len(s.panes) <= maxPanes {
		return nil
	}
	expired := s.panes[:len(s.panes)-maxPanes]
	s.panes = s.panes[len(s.panes)-maxPanes:]
	return expired
}

// lockQuery takes the core lock for a live query, which answers from the
// family's view while it holds it. The returned func charges the time since
// to Merge and releases the lock; deferring it keeps a panicking query (an
// empty quantile window, a bad span) from leaving the lock held.
func (s *sliding[T, P]) lockQuery() (unlock func()) {
	s.core.Lock()
	t0 := time.Now()
	return func() {
		s.core.AddMerge(time.Since(t0), 0)
		s.core.Unlock()
	}
}

// fold merges parts into one while keeping their order: adjacent pairs per
// round, so ⌈log₂ len(parts)⌉ rounds that each copy every entry once. merge
// must depend on the order of its parts but not on their bracketing, as
// histogram.Merge and summary.Merge do (DESIGN.md §23, §24); the result is
// then the left-to-right chain's bit for bit. parts is overwritten; no
// parts fold to the zero P.
func fold[P any](parts []P, merge func(a, b P) P) P {
	for len(parts) > 1 {
		next := parts[:0]
		for i := 0; i < len(parts); i += 2 {
			if i+1 == len(parts) {
				next = append(next, parts[i])
			} else {
				next = append(next, merge(parts[i], parts[i+1]))
			}
		}
		parts = next
	}
	if len(parts) == 0 {
		var zero P
		return zero
	}
	return parts[0]
}
