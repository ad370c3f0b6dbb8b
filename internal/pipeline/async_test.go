package pipeline

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"
)

// stagedCollect returns a staged core whose merge stage records every sorted
// window it receives, plus the record. startAsync selects the executor.
func stagedCollect(window int, startAsync bool) (*Core[float32], *[][]float32) {
	var wins [][]float32
	c := NewStagedCore(window, sliceSorter{}, func(win []float32) {
		wins = append(wins, append([]float32(nil), win...))
	})
	if startAsync {
		c.StartAsync()
	}
	return c, &wins
}

// sliceSorter is a minimal synchronous sorter.Sorter[float32].
type sliceSorter struct{}

func (sliceSorter) Sort(data []float32) {
	sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
}

func (sliceSorter) Name() string { return "test-slice" }

func TestStagedCoreSyncSortsWindows(t *testing.T) {
	c, wins := stagedCollect(4, false)
	c.ProcessSlice([]float32{4, 3, 2, 1, 8, 7, 6, 5})
	c.Flush()
	want := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}
	if !reflect.DeepEqual(*wins, want) {
		t.Fatalf("merge stage saw %v, want %v", *wins, want)
	}
	st := c.Stats()
	if st.Windows != 2 || st.SortedValues != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Overlap != 0 || st.Stall != 0 || st.MaxInFlight != 0 {
		t.Fatalf("sync staged core reported executor stats: %+v", st)
	}
}

// TestAsyncMatchesSyncAtCoreLevel pins the executor's ordering guarantee at
// the lowest layer: the merge stage must see the same sorted windows in the
// same order regardless of mode, for whole-stream, per-element, and
// partial-final-window ingestion.
func TestAsyncMatchesSyncAtCoreLevel(t *testing.T) {
	data := make([]float32, 1037)
	for i := range data {
		data[i] = float32((i * 7919) % 1000)
	}
	run := func(async bool, oneByOne bool) [][]float32 {
		c, wins := stagedCollect(64, async)
		if oneByOne {
			for _, v := range data {
				c.Process(v)
			}
		} else {
			c.ProcessSlice(data)
		}
		c.Close()
		return *wins
	}
	for _, oneByOne := range []bool{false, true} {
		syncWins, asyncWins := run(false, oneByOne), run(true, oneByOne)
		if !reflect.DeepEqual(syncWins, asyncWins) {
			t.Fatalf("oneByOne=%v: async merge order diverged (%d vs %d windows)",
				oneByOne, len(syncWins), len(asyncWins))
		}
	}
}

func TestAsyncBarrierMakesStateVisible(t *testing.T) {
	var total float64
	c := NewStagedCore(8, sliceSorter{}, func(win []float32) {
		for _, v := range win {
			total += float64(v)
		}
	})
	c.StartAsync()
	var want float64
	for i := 0; i < 1024; i++ {
		c.Process(float32(i % 97))
		want += float64(i % 97)
	}
	// Without the barrier `total` may lag by up to two in-flight windows;
	// with it every emitted window must have merged. The last partial window
	// is still buffered, so flush first.
	c.Flush()
	c.mu.Lock()
	c.BarrierLocked()
	got := total
	c.mu.Unlock()
	if got != want {
		t.Fatalf("after barrier merged total = %v, want %v", got, want)
	}
	c.Close()
}

func TestAsyncStatsCountersMatchSync(t *testing.T) {
	run := func(async bool) Stats {
		c, _ := stagedCollect(32, async)
		for i := 0; i < 10; i++ {
			buf := make([]float32, 100)
			for j := range buf {
				buf[j] = float32((i*100 + j) % 53)
			}
			c.ProcessSlice(buf)
		}
		c.Close()
		s := c.Stats()
		// Wall-clock fields differ between modes by construction.
		s.Sort, s.Merge, s.Compress, s.Idle = 0, 0, 0, 0
		s.Overlap, s.Stall, s.MaxInFlight = 0, 0, 0
		return s
	}
	if syncStats, asyncStats := run(false), run(true); !reflect.DeepEqual(syncStats, asyncStats) {
		t.Fatalf("counter mismatch:\n  sync:  %+v\n  async: %+v", syncStats, asyncStats)
	}
}

func TestAsyncReportsStallAndInFlight(t *testing.T) {
	slow := slowSorter{d: 200 * time.Microsecond}
	c := NewStagedCore[float32](16, slow, func([]float32) {})
	c.StartAsync()
	for i := 0; i < 16*64; i++ {
		c.Process(float32(i))
	}
	c.Close()
	st := c.Stats()
	if st.MaxInFlight < 1 {
		t.Fatalf("MaxInFlight = %d, want >= 1", st.MaxInFlight)
	}
	if st.Windows != 64 {
		t.Fatalf("Windows = %d, want 64", st.Windows)
	}
}

// slowSorter sleeps before sorting so ingestion outruns the sort stage and
// must stall waiting on it.
type slowSorter struct{ d time.Duration }

func (s slowSorter) Sort(data []float32) {
	time.Sleep(s.d)
	sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
}

func (slowSorter) Name() string { return "test-slow" }

// TestAsyncOverlapAccrues pins the acceptance criterion that a multi-window
// async run reports nonzero Stats.Overlap. Slow stages make it
// deterministic on any host, single-core included: while the sort stage
// sleeps in window i, the merge stage is inside window i-1, so both busy
// flags are set and the tracker must accrue wall clock.
func TestAsyncOverlapAccrues(t *testing.T) {
	mergeDelay := 2 * time.Millisecond
	c := NewStagedCore[float32](16, slowSorter{d: 4 * time.Millisecond}, func([]float32) {
		time.Sleep(mergeDelay)
	})
	c.StartAsync()
	for i := 0; i < 16*8; i++ {
		c.Process(float32(i))
	}
	c.Close()
	st := c.Stats()
	if st.Windows != 8 {
		t.Fatalf("Windows = %d, want 8", st.Windows)
	}
	if st.Overlap <= 0 {
		t.Fatalf("multi-window async run accrued no overlap: %+v", st)
	}
	if st.MaxInFlight < 2 {
		t.Fatalf("MaxInFlight = %d, want 2 with both stages saturated", st.MaxInFlight)
	}
}

func TestAsyncCloseIsIdempotentAndFinal(t *testing.T) {
	c, wins := stagedCollect(4, true)
	c.ProcessSlice([]float32{3, 1, 2})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Process(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Process after Close = %v, want ErrClosed", err)
	}
	if want := [][]float32{{1, 2, 3}}; !reflect.DeepEqual(*wins, want) {
		t.Fatalf("final flush through async path saw %v, want %v", *wins, want)
	}
}

// flipTuner commands an executor transition at almost every window
// boundary — on, off, keep, on, off — exercising mid-stream mode changes in
// both directions.
type flipTuner struct{ i int }

func (f *flipTuner) Retune(Stats, Knobs[float32]) (Knobs[float32], bool) {
	ring := []AsyncKnob{AsyncOn, AsyncOff, AsyncKeep, AsyncOn, AsyncOff}
	f.i++
	return Knobs[float32]{Async: ring[f.i%len(ring)]}, true
}

// TestAsyncFlipMidStreamBitIdentical pins the elastic execution-mode knob
// at the core level: a schedule of sync↔async flips must hand the merge
// stage the same sorted windows in the same order as a fixed-mode run, from
// either starting mode and for both slice and per-element ingestion — and
// the executor must genuinely start and stop along the way, observed
// between ingestion calls.
func TestAsyncFlipMidStreamBitIdentical(t *testing.T) {
	data := make([]float32, 64*40+17) // 40 full windows plus a partial tail
	for i := range data {
		data[i] = float32((i * 6007) % 997)
	}
	run := func(startAsync, flip, oneByOne bool) ([][]float32, map[bool]bool) {
		c, wins := stagedCollect(64, startAsync)
		if flip {
			c.SetTuner(&flipTuner{})
		}
		modes := map[bool]bool{}
		step := 160 // not a window multiple, so flips land mid-buffer too
		if oneByOne {
			step = 1
		}
		for off := 0; off < len(data); off += step {
			end := min(off+step, len(data))
			if oneByOne {
				c.Process(data[off])
			} else {
				c.ProcessSlice(data[off:end])
			}
			// The commanded mode is live when the ingestion call returns.
			c.mu.Lock()
			if (c.exec != nil) != c.asyncWant {
				t.Fatalf("commanded async=%v but executor live=%v after an ingestion call", c.asyncWant, c.exec != nil)
			}
			modes[c.exec != nil] = true
			c.mu.Unlock()
		}
		c.Close()
		return *wins, modes
	}
	for _, oneByOne := range []bool{false, true} {
		base, _ := run(false, false, oneByOne)
		for _, startAsync := range []bool{false, true} {
			got, modes := run(startAsync, true, oneByOne)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("oneByOne=%v startAsync=%v: flip schedule diverged from fixed sync (%d vs %d windows)",
					oneByOne, startAsync, len(base), len(got))
			}
			if !modes[true] || !modes[false] {
				t.Fatalf("oneByOne=%v startAsync=%v: executor never transitioned (observed modes %v)",
					oneByOne, startAsync, modes)
			}
		}
	}
}

func TestStartAsyncMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("nil sorter", func() {
		NewStagedCore[float32](4, nil, func([]float32) {})
	})
	expectPanic("nil merge", func() {
		NewStagedCore[float32](4, sliceSorter{}, nil)
	})
	expectPanic("double start", func() {
		c, _ := stagedCollect(4, true)
		defer c.Close()
		c.StartAsync()
	})
	expectPanic("start after ingest", func() {
		c, _ := stagedCollect(4, false)
		c.Process(1)
		c.StartAsync()
	})
}

// ringTuner commands the execution mode from a fixed ring, one entry per
// retune: 0 keeps, 1 flips on, 2 flips off.
type ringTuner struct {
	ring []byte
	i    int
}

func (r *ringTuner) Retune(Stats, Knobs[float32]) (Knobs[float32], bool) {
	k := AsyncKnob(r.ring[r.i%len(r.ring)] % 3)
	r.i++
	return Knobs[float32]{Async: k}, true
}

// FuzzExecutorSchedule is the executor's differential: for any window size,
// chunk plan (slices or single values), sync/async flip ring and schedule
// of barriers and Flushes between calls, the merge stage must see the same
// sorted windows in the same order as a synchronous core fed the same
// calls, and whenever an ingestion call returns the executor must be
// running exactly when the tuner last commanded async — so the schedule
// really starts and stops it.
func FuzzExecutorSchedule(f *testing.F) {
	f.Add(uint8(7), []byte{0x10, 0x01, 0x22, 0x00}, []byte{1, 2, 0, 1, 2}, []byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Add(uint8(0x83), []byte{0x00, 0x02, 0xff}, []byte{2, 1}, make([]byte, 300))
	f.Add(uint8(1), []byte{0x05}, []byte{}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, window uint8, plan, ring, data []byte) {
		w := int(window&63) + 1
		startAsync := window&128 != 0
		if len(plan) == 0 {
			plan = []byte{0}
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		vals := make([]float32, len(data))
		for i, b := range data {
			vals[i] = float32(int8(b))
		}
		// Each plan byte (cycled) is one call: the high six bits are the
		// chunk length (0 = one Process), the low two what follows the
		// call: 1 Flush, 2 a barrier under the lock, otherwise nothing.
		drive := func(c *Core[float32], check func()) {
			for off, p := 0, 0; off < len(vals); p++ {
				step := plan[p%len(plan)]
				if n := int(step >> 2); n == 0 {
					c.Process(vals[off])
					off++
				} else {
					end := min(off+n, len(vals))
					c.ProcessSlice(vals[off:end])
					off = end
				}
				switch step & 3 {
				case 1:
					c.Flush()
				case 2:
					c.Lock()
					c.BarrierLocked()
					c.Unlock()
				}
				check()
			}
			c.Close()
		}

		ref, want := stagedCollect(w, false)
		drive(ref, func() {})

		c, got := stagedCollect(w, startAsync)
		if len(ring) > 0 {
			c.SetTuner(&ringTuner{ring: ring})
		}
		drive(c, func() {
			c.Lock()
			defer c.Unlock()
			if (c.exec != nil) != c.asyncWant {
				t.Fatalf("commanded async=%v but executor live=%v after a call", c.asyncWant, c.exec != nil)
			}
		})
		if !reflect.DeepEqual(*want, *got) {
			t.Fatalf("window=%d async=%v ring=%v: merge stage saw %d windows, sync core %d, or a different order",
				w, startAsync, ring, len(*got), len(*want))
		}
		if c.exec != nil {
			t.Fatal("executor still running after Close")
		}
	})
}
