package pipeline

// Staged asynchronous execution: the paper's co-processing model (Sections
// 3-4) runs the GPU sort of window i concurrently with the CPU merge and
// compress of window i-1, hiding summary maintenance behind sorting. The
// executor here is that model on goroutines: a sort stage that owns the
// sorter, a merge stage that owns the summary state (it runs mergeFn under
// the core lock), and two pooled window buffers so ingestion fills buffer B
// while buffer A is in flight.
//
//	ingestion ── sortCh(1) ──> sort stage ── sortedCh(1) ──> merge stage
//	    ^                                                        │
//	    └────────────────────── freeCh(2) <──────────────────────┘
//
// Bit-identity with synchronous mode holds because nothing about the work is
// reordered: windows enter sortCh in ingestion order, the single sort-stage
// goroutine sorts them one at a time with the same sorter instance, and the
// single merge-stage goroutine merges them in arrival order. Only the
// interleaving with ingestion changes, and queries re-serialize through
// BarrierLocked before reading summary state.
//
// Query barrier: BarrierLocked waits (on the core's cond, lock held) until
// no window is mid-hand-off and inflight == 0. inflight is incremented under
// the lock when a window is handed off and decremented by the merge stage
// under the lock after mergeFn returns, so inflight == 0 observed under the
// lock means both stage goroutines are idle and every emitted window has
// been merged — at that point the summary equals the serial-prefix state and
// the sorter is quiescent (safe for query-time partial sorts).

import (
	"sync"
	"time"

	"gpustream/internal/sorter"
)

// sortJob carries a sealed window to the sort stage together with the
// sorter it was sealed under. The sorter rides with the job rather than
// being read from the core so a tuner may swap backends at a window
// boundary without racing the sort stage: a window already handed off
// keeps the sorter that was active when it was sealed.
type sortJob[T sorter.Value] struct {
	win []T
	srt sorter.Sorter[T]
}

// sortedWindow carries a sorted window from the sort stage to the merge
// stage along with the sort's measured wall clock, which the merge stage
// folds into Stats under the lock (the sort stage itself never takes it).
type sortedWindow[T sorter.Value] struct {
	win []T
	dur time.Duration
}

// executor owns the two stage goroutines and the channels between them.
type executor[T sorter.Value] struct {
	sortCh   chan sortJob[T]      // ingestion -> sort stage, cap 1
	sortedCh chan sortedWindow[T] // sort stage -> merge stage, cap 1
	freeCh   chan []T             // merge stage -> ingestion buffer recycling
	done     chan struct{}        // closed when the merge stage exits
	ov       overlapTracker
}

const (
	stageSort  = 0
	stageMerge = 1
)

// overlapTracker measures the wall clock during which both stages were busy
// simultaneously — the executor's analog of the paper's hidden CPU time. It
// has its own mutex because the sort stage never takes the core lock.
type overlapTracker struct {
	mu        sync.Mutex
	busy      [2]bool
	bothSince time.Time
	acc       time.Duration
}

func (o *overlapTracker) enter(stage int) {
	o.mu.Lock()
	o.busy[stage] = true
	if o.busy[0] && o.busy[1] {
		o.bothSince = time.Now()
	}
	o.mu.Unlock()
}

func (o *overlapTracker) exit(stage int) {
	o.mu.Lock()
	if o.busy[0] && o.busy[1] {
		o.acc += time.Since(o.bothSince)
	}
	o.busy[stage] = false
	o.mu.Unlock()
}

func (o *overlapTracker) total() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.acc
	if o.busy[0] && o.busy[1] {
		t += time.Since(o.bothSince)
	}
	return t
}

// StartAsync switches a staged core from inline to overlapped execution:
// subsequent full windows are handed to the sort stage goroutine and their
// merge/compress runs on the merge stage goroutine while ingestion refills.
// It must be called on a staged core (NewStagedCore), at most once, and
// before any value is ingested — it picks the initial mode; a Tuner owns
// the mode at runtime through the Knobs.Async knob. Close drains and
// terminates both stage goroutines.
func (c *Core[T]) StartAsync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srt == nil {
		panic("pipeline: StartAsync requires a staged core")
	}
	if c.exec != nil {
		panic("pipeline: StartAsync called twice")
	}
	if c.closed || c.count != 0 {
		panic("pipeline: StartAsync must precede ingestion")
	}
	c.asyncWant = true
	c.startExecutorLocked()
}

// startExecutorLocked spins up the two stage goroutines. The caller must
// hold the lock with no window mid-hand-off; starting between windows is
// always safe because the executor begins empty — the very next sealed
// window is simply handed off instead of sorted inline.
func (c *Core[T]) startExecutorLocked() {
	e := &executor[T]{
		sortCh:   make(chan sortJob[T], 1),
		sortedCh: make(chan sortedWindow[T], 1),
		freeCh:   make(chan []T, 2),
		done:     make(chan struct{}),
	}
	// The second window buffer: ingestion swaps its full buffer for this one
	// at the first hand-off and the two then alternate through freeCh.
	e.freeCh <- getBuf[T](c.window)
	c.exec = e
	go c.runSort(e)
	go c.runMerge(e)
}

// stopExecutorLocked quiesces and joins the stage goroutines, folding the
// executor's overlap total into the base stats so nothing is lost across the
// transition. The caller must hold the lock. Waiting for done while holding
// the lock is safe: after BarrierLocked both stages are idle and blocked on
// their channels, and the shutdown cascade (close sortCh -> sort stage
// closes sortedCh -> merge stage closes done) takes no core lock because
// neither range loop has an item left to process.
func (c *Core[T]) stopExecutorLocked() {
	c.BarrierLocked()
	exec := c.exec
	c.exec = nil
	c.stats.Overlap += exec.ov.total()
	close(exec.sortCh)
	<-exec.done
	for {
		select {
		case b := <-exec.freeCh:
			putBuf(b)
		default:
			return
		}
	}
}

// emitAsync hands the full window to the executor and swaps in a recycled
// buffer. It runs with the lock held and releases it across the hand-off
// (the merge stage needs the lock to make progress, and holding it while
// blocked on a channel would deadlock exactly like a shard dispatch would);
// the handoff flag plus waitHandoff keep other writers and flushes out of
// the half-swapped state in the meantime.
func (c *Core[T]) emitAsync() {
	win := c.buf
	c.buf = nil
	c.handoff = true
	c.inflight++
	if int64(c.inflight) > c.stats.MaxInFlight {
		c.stats.MaxInFlight = int64(c.inflight)
	}
	exec := c.exec
	srt := c.srt
	c.mu.Unlock()
	t0 := time.Now()
	exec.sortCh <- sortJob[T]{win: win, srt: srt}
	fresh := <-exec.freeCh
	d := time.Since(t0)
	c.mu.Lock()
	c.stats.Stall += d
	c.buf = fresh[:0]
	c.handoff = false
	c.cond.Broadcast()
}

// waitHandoff blocks (lock held) until no window is mid-hand-off, so callers
// never observe the nil buffer of a half-completed swap.
func (c *Core[T]) waitHandoff() {
	for c.handoff {
		c.cond.Wait()
	}
}

// BarrierLocked drains the executor: it blocks (lock held) until every
// emitted window has been sorted and merged. On return the summary state is
// identical to what synchronous execution of the same prefix would have
// produced and the sorter is idle, so query paths may walk summary state and
// reuse the sorter for partial-window sorts. On a synchronous core it is a
// no-op. The caller must hold the lock.
func (c *Core[T]) BarrierLocked() {
	if c.exec == nil {
		return
	}
	for c.handoff || c.inflight > 0 {
		c.cond.Wait()
	}
}

// runSort is the sort stage: it sorts windows one at a time in arrival
// order with the sorter each job was sealed under. This goroutine is the
// paper's non-blocking render + readback: ingestion hands a window off and
// returns, and the sort completes here (DESIGN.md §11). The executor is
// passed explicitly: c.exec may already point at a successor (or nil) by
// the time a stopped executor's goroutines wind down.
func (c *Core[T]) runSort(e *executor[T]) {
	for job := range e.sortCh {
		e.ov.enter(stageSort)
		t0 := time.Now()
		job.srt.Sort(job.win)
		d := time.Since(t0)
		e.ov.exit(stageSort)
		e.sortedCh <- sortedWindow[T]{win: job.win, dur: d}
	}
	close(e.sortedCh)
}

// runMerge is the merge/compress stage: it folds sorted windows into the
// summary state under the core lock (the same contract a synchronous sink
// has), lands the sort stage's telemetry, and recycles the buffer.
func (c *Core[T]) runMerge(e *executor[T]) {
	for sw := range e.sortedCh {
		e.ov.enter(stageMerge)
		c.mu.Lock()
		c.stats.Sort += sw.dur
		c.stats.SortedValues += int64(len(sw.win))
		c.mergeFn(sw.win)
		c.inflight--
		c.retune()
		c.cond.Broadcast()
		c.mu.Unlock()
		e.ov.exit(stageMerge)
		e.freeCh <- sw.win[:0]
	}
	close(e.done)
}
