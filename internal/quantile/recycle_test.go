package quantile

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// TestViewsSurviveRecycling: a view never shares storage with a bucket, so
// the cascade writing new buckets into recycled bucket storage cannot reach
// it. Views are taken where that used to fail — after exactly two windows
// (a single bucket and nothing held or buffered: the view was the bucket
// itself) — after one (the held window alone), and after a Flush in the
// middle of a carry sequence, and each must marshal to the same bytes
// across 200 more windows.
func TestViewsSurviveRecycling(t *testing.T) {
	e := newCPU(0.001, 0)
	w := e.WindowSize()
	data := stream.Zipf(210*w, 1.1, 5000, 26)
	fed := 0
	feed := func(n int) {
		if err := e.ProcessSlice(data[fed : fed+n]); err != nil {
			t.Fatal(err)
		}
		fed += n
	}
	type held struct {
		name string
		view *Snapshot[float32]
		blob []byte
	}
	var views []held
	take := func(name string) {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		v := e.Snapshot().(*Snapshot[float32])
		blob, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, held{name, v, blob})
	}
	feed(w)
	take("one window")
	feed(w)
	take("two windows")
	feed(5*w + w/2)
	take("mid-cascade flush")
	for i := range 200 {
		feed(w)
		if i%10 != 9 {
			continue
		}
		for _, h := range views {
			blob, err := h.view.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, h.blob) {
				t.Fatalf("view after %s changed after %d more windows", h.name, i+1)
			}
		}
	}
}

// drainSpares empties every capacity class of the spare store's float32
// values and uint8 run indexes, what compact buckets and held windows are
// stored in, and returns what the stores of all types then retain, so a
// test can count what its own estimators recycle.
func drainSpares() int64 {
	for c := range bits.UintSize {
		pipeline.TakeSpare[float32](1 << c >> 1)
		pipeline.TakeSpare[uint8](1 << c >> 1)
	}
	return pipeline.SpareBytes()
}

// spareProbe checks the process-wide spare store after every window of
// every estimator sharing it (Retune runs under the core lock right after
// a window was merged). What the estimators put there is compact buckets'
// values and run indexes and the held windows they borrow for a pair, and
// the store holds no more, per type and capacity class, than the largest
// such buffer seen in that class, however many estimators recycle into
// it: never a buffer the size of a pruned bucket or of a merged
// intermediate, nor one set of spares per estimator.
type spareProbe struct {
	t       *testing.T
	ests    []*Estimator[float32]
	base    int64            // what the stores held before the estimators ran
	largest map[[2]int]int64 // per (0 values, 1 run indexes) and class, the most bytes a buffer has had
	windows int
}

// note records a buffer of n elements of size bytes each, kind 0 or 1.
func (p *spareProbe) note(kind, n int, size int64) {
	k := [2]int{kind, bits.Len(uint(n))}
	p.largest[k] = max(p.largest[k], int64(n)*size)
}

// spareTuner is the Retune hook of estimator i.
type spareTuner struct {
	p *spareProbe
	i int
}

func (st spareTuner) Retune(pipeline.Stats, pipeline.Knobs[float32]) (pipeline.Knobs[float32], bool) {
	p, e := st.p, st.p.ests[st.i]
	p.windows++
	for _, b := range e.levels {
		if b.c != nil {
			p.note(0, cap(b.c.Vals), 4)
			p.note(1, cap(b.c.Src), 1)
		}
	}
	p.note(0, cap(e.held), 4)
	var bound int64
	for _, n := range p.largest {
		bound += n
	}
	if held := pipeline.SpareBytes() - p.base; held > bound {
		p.t.Fatalf("window %d: spares hold %d B, one compact bucket or held window per class %d B", p.windows, held, bound)
	}
	return pipeline.Knobs[float32]{}, false
}

// TestSpareStorageBounded ingests two estimators at each of eps 1e-2 and
// 1e-3, a window of each in turn, and holds the shared store to one
// compact bucket's storage or held window per type and class after every
// window.
func TestSpareStorageBounded(t *testing.T) {
	p := &spareProbe{t: t, largest: map[[2]int]int64{}}
	var data [][]float32
	for i, eps := range []float64{0.01, 0.01, 0.001, 0.001} {
		e := newCPU(eps, 0)
		p.ests = append(p.ests, e)
		e.SetTuner(spareTuner{p, i})
		data = append(data, stream.Zipf(300*e.WindowSize(), 1.1, 5000, uint64(5+i)))
	}
	// After the estimators took their window buffers from the same stores,
	// so the bound is on bucket storage alone.
	p.base = drainSpares()
	for w := range 300 {
		for i, e := range p.ests {
			win := e.WindowSize()
			if err := e.ProcessSlice(data[i][w*win : (w+1)*win]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range p.ests {
		if st := e.Stats(); st.CompressOps == 0 {
			t.Fatalf("eps=%v: nothing pruned in %d windows", e.eps, st.Windows)
		}
	}
	if pipeline.SpareBytes() == p.base {
		t.Fatalf("nothing was recycled in %d windows", p.windows)
	}
}

// TestCombineRecyclesItselfOnce: a bucket combined with itself, as
// TestCombineFortyLevels carries one, gives its storage to the shared
// store once. Put twice, another estimator could take it between the two
// puts and a third after the second, and both would write into it. Each
// goroutine here takes storage from the store right after such a combine,
// fills it with its own mark and checks the mark survives while the others
// do the same.
func TestCombineRecyclesItselfOnce(t *testing.T) {
	const workers, rounds = 4, 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newCPU(0.01, 0)
			win := stream.Uniform(2*e.WindowSize(), uint64(40+g))
			slices.Sort(win)
			mark := float32(g + 1)
			for range rounds {
				s := bucket[float32]{c: windowSummary(takeSpare[float32](summary.SampledLen(int64(len(win)), e.eps)), win, nil, e.eps)}
				m, _ := e.combine(0, s, s)
				mine := pipeline.TakeSpare[float32](cap(s.c.Vals))
				mine = mine[:cap(mine)]
				for i := range mine {
					mine[i] = mark
				}
				runtime.Gosched()
				for _, v := range mine {
					if v != mark {
						errs <- fmt.Errorf("worker %d: storage it took holds another's mark %v", g, v)
						return
					}
				}
				if err := m.entries().Validate(); err != nil {
					errs <- fmt.Errorf("worker %d: combined bucket: %v", g, err)
					return
				}
				pipeline.PutSpare(mine)
				e.recycle(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// allocCeiling is the bytes allocated per value by ingesting 2^20 zipf
// values at eps 1e-3 with the window-buffer pool warm, plus ten percent:
// 3.81 since a pruning combine writes its bucket packed, 12 bytes an entry
// (5.89 with 24-byte GK tuples), 10.55 since level 0 spans two sort
// windows, 21.17 when bucket storage recycling and the fused prune landed,
// 35.90 before, when every bucket, combine and window summary was
// allocated fresh. The count is deterministic — the data, the windows and
// the cascade are — so the margin is for a later change, not for noise.
const allocCeiling = 3.81 * 1.1

func TestIngestAllocationCeiling(t *testing.T) {
	data := stream.Zipf(1<<20, 1.1, (1<<20)/100+10, 3)
	ingest := func() {
		e := newCPU(0.001, 0)
		if err := e.ProcessSlice(data); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ingest()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest()
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(data)); got > allocCeiling {
		t.Fatalf("ingest allocated %.2f B/value, ceiling %.2f", got, allocCeiling)
	}
}

// viewOverheadCeiling is what an uncached Snapshot at eps 1e-3 may
// allocate besides its view's entries, however many entries its parts
// hold: the held and partial windows' compact level-0 part (at most 1,002
// values and run indexes, 5 KiB), the merge chain's blocks (6 KiB per part
// past the second and per compact part, which its reader writes into) and
// stages, and a few small headers. The chain of merges the streamed one
// replaced materialized every stage: over 2 MB at six parts.
const viewOverheadCeiling = 64 << 10

// TestSnapshotAllocatesTheView takes uncached snapshots after every eighth
// of a 2^21-value zipf stream, flushed as the benchmark's queries are, and
// holds what each allocates beyond its view's entry storage to
// viewOverheadCeiling while the parts grow from two to six.
func TestSnapshotAllocatesTheView(t *testing.T) {
	const n = 1 << 21
	data := stream.Zipf(n, 1.1, n/100+10, 1)
	e := newCPU(0.001, 0)
	entrySize := uint64(unsafe.Sizeof(summary.Entry[float32]{}))
	for q := range 8 {
		if err := e.ProcessSlice(data[q*n/8 : (q+1)*n/8]); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		parts, entries := viewParts(e)
		const reads = 4
		var view *summary.Summary[float32]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reads {
			dropView(e)
			view = e.Snapshot().(*Snapshot[float32]).Summary()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / reads
		if over := per - uint64(cap(view.Entries))*entrySize; over > viewOverheadCeiling {
			t.Fatalf("after %d/8: a snapshot of %d parts holding %d entries allocates %d B, %d B past its %d-entry view; ceiling %d",
				q+1, parts, entries, per, over, cap(view.Entries), viewOverheadCeiling)
		}
	}
}

// TestLongStreamBucketBytes runs the whole lib-quant-zipf stream, whose
// end state is what a long-lived stream holds: pruned buckets, which the
// compact form does not reach. Counted from slice capacities, each must
// take at most 12 bytes an entry at float32 and 16 at uint64, packed where
// GK tuples take 24, and the entries retained must be what they were with
// tuples (32,033 at float32).
func TestLongStreamBucketBytes(t *testing.T) {
	float32s := checkBucketBytes[float32](t, 12)
	if got := float32s.SummaryEntries(); got != 32033 {
		t.Fatalf("float32: %d entries retained, want 32,033", got)
	}
	checkBucketBytes[uint64](t, 16)
}

func checkBucketBytes[T sorter.Value](t *testing.T, most uintptr) *Estimator[T] {
	t.Helper()
	e := libQuantZipfOf[T](t, 8)[0]
	e.core.Lock()
	defer e.core.Unlock()
	pruned := 0
	for k, b := range e.levels {
		if b.empty() || b.c != nil {
			continue
		}
		if b.p == nil {
			t.Fatalf("%T: level %d is pruned but not packed", *new(T), k)
		}
		pruned++
		if bytes := uintptr(cap(b.p.Entries)) * unsafe.Sizeof(b.p.Entries[0]); bytes > most*uintptr(b.p.Size()) {
			t.Fatalf("%T: level %d holds %d entries in %d B, over %d B an entry", *new(T), k, b.p.Size(), bytes, most)
		}
	}
	if pruned == 0 {
		t.Fatalf("%T: no bucket was pruned", *new(T))
	}
	return e
}
