package pipeline

// Staged asynchronous execution: the paper's co-processing model (Sections
// 3-4) runs the GPU sort of window i concurrently with the CPU merge and
// compress of window i-1, hiding summary maintenance behind sorting. The
// executor here is that model with one goroutine: a sort stage that owns
// the sorter, fed by the caller that seals windows. That caller is the
// paper's CPU — at the boundary of window i it hands i to the sort stage,
// takes back sorted window i-1, merges it under the core lock it already
// holds, and refills from i-1's buffer.
//
//	emit(i) ── sortCh(1) ──> sort stage ── sortedCh(1) ──> emit(i+1) merges i
//
// Bit-identity with synchronous mode holds because nothing about the work is
// reordered: windows enter sortCh in ingestion order, the single sort-stage
// goroutine sorts them one at a time with the sorter each was sealed with,
// and every merge runs under the lock in that same order. Only the
// interleaving of sort and merge changes.
//
// Query barrier: at most one window is ever pending (at the sort stage and
// not yet merged). BarrierLocked merges it, so on return the summary equals
// the serial-prefix state and the sort stage is idle (safe for query-time
// partial sorts).

import (
	"time"

	"gpustream/internal/sorter"
)

// job is a window on its way through the sort stage: sealed with the
// sorter it keeps (so a tuner may swap backends at a window boundary
// without racing the stage), and back sorted with the stage's start and
// end, as offsets from the executor's epoch.
type job[T sorter.Value] struct {
	win        []T
	srt        sorter.Sorter[T]
	start, end time.Duration
}

// executor owns the sort-stage goroutine, the channels to and from it, and
// the one pending window. The sort stage never takes the core lock; its
// telemetry rides back in each job and lands under the lock.
type executor[T sorter.Value] struct {
	sortCh   chan job[T] // caller -> sort stage, cap 1
	sortedCh chan job[T] // sort stage -> caller, cap 1; closed on exit
	pending  bool        // a window is at the sort stage, not yet merged
	epoch    time.Time
	// The caller's last merge, as offsets from epoch. It ran while the
	// pending window sorted, so their intersection is the Overlap that
	// window adds when it comes back.
	mergeStart, mergeEnd time.Duration
}

// StartAsync switches the core from inline to overlapped execution:
// subsequent full windows are handed to the sort stage goroutine, and each
// is merged by the caller that seals the next one (or by the next barrier).
// It must be called at most once, and before any value is ingested — it
// picks the initial mode; a Tuner owns the mode at runtime through the
// Knobs.Async knob. Close drains and terminates the sort stage.
func (c *Core[T]) StartAsync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.exec != nil {
		panic("pipeline: StartAsync called twice")
	}
	if c.closed || c.count != 0 {
		panic("pipeline: StartAsync must precede ingestion")
	}
	c.asyncWant = true
	c.startExecutorLocked()
}

// startExecutorLocked spins up the sort stage. Starting between windows is
// always safe because the executor begins empty — the very next sealed
// window is simply handed off instead of sorted inline.
func (c *Core[T]) startExecutorLocked() {
	e := &executor[T]{
		sortCh:   make(chan job[T], 1),
		sortedCh: make(chan job[T], 1),
		epoch:    time.Now(),
	}
	c.exec = e
	go runSort(e)
}

// stopExecutorLocked joins the idle sort stage. The caller must hold the
// lock with no window pending: Close reaches it after FlushLocked, and
// applyAsyncLocked merges the pending window first.
func (c *Core[T]) stopExecutorLocked() {
	e := c.exec
	c.exec = nil
	close(e.sortCh)
	<-e.sortedCh // closed once the sort stage has exited
}

// emitAsync hands the full window to the sort stage, then merges the
// previous window — sorted meanwhile — and refills from its buffer. Sort(i)
// thus overlaps merge(i-1), and filling i+1 waits for merge(i-1), exactly
// the paper's two-stage schedule. The lock stays held throughout: the sort
// stage never takes it.
func (c *Core[T]) emitAsync() {
	e := c.exec
	inFlight := int64(1)
	if e.pending {
		inFlight = 2
	}
	c.stats.MaxInFlight = max(c.stats.MaxInFlight, inFlight)
	t0 := time.Now()
	e.sortCh <- job[T]{win: c.buf, srt: c.srt}
	if !e.pending {
		c.stats.Stall += time.Since(t0)
		e.pending = true
		c.buf = TakeSpareAtLeast[T](c.window)
		return
	}
	j := <-e.sortedCh
	c.stats.Stall += time.Since(t0)
	c.mergeSortedLocked(j)
	c.buf = j.win[:0]
}

// mergePendingLocked merges the pending window, if any, and returns its
// buffer to the spare store.
func (c *Core[T]) mergePendingLocked() {
	if e := c.exec; e != nil && e.pending {
		e.pending = false
		j := <-e.sortedCh
		c.mergeSortedLocked(j)
		PutSpare(j.win)
	}
}

// mergeSortedLocked lands a window the sort stage sorted — its sort time,
// and its overlap with the merge that ran beside it — then merges it and
// retunes.
func (c *Core[T]) mergeSortedLocked(j job[T]) {
	e := c.exec
	c.AddSort(j.end-j.start, int64(len(j.win)))
	if d := min(e.mergeEnd, j.end) - max(e.mergeStart, j.start); d > 0 {
		c.stats.Overlap += d
	}
	e.mergeStart = time.Since(e.epoch)
	c.mergeFn(j.win)
	e.mergeEnd = time.Since(e.epoch)
	c.retune()
}

// BarrierLocked drains the executor: it merges the pending window, if any.
// On return the summary state is identical to what synchronous execution of
// the same prefix would have produced and the sorter is idle, so query paths
// may walk summary state and reuse the sorter for partial-window sorts. A
// mode flip commanded by that merge's retune takes effect before it
// returns. On a synchronous core it is a no-op. The caller must hold the
// lock.
func (c *Core[T]) BarrierLocked() {
	if c.exec == nil || !c.exec.pending {
		return
	}
	c.mergePendingLocked()
	c.applyAsyncLocked()
}

// runSort is the sort stage: it sorts windows one at a time in arrival
// order with the sorter each job was sealed under. This goroutine is the
// paper's non-blocking render + readback: the caller hands a window off
// and goes on, and the sort completes here (DESIGN.md §11).
func runSort[T sorter.Value](e *executor[T]) {
	for j := range e.sortCh {
		j.start = time.Since(e.epoch)
		j.srt.Sort(j.win)
		j.end = time.Since(e.epoch)
		e.sortedCh <- j
	}
	close(e.sortedCh)
}
