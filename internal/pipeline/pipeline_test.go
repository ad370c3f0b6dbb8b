package pipeline

import (
	"errors"
	"slices"
	"testing"
	"time"

	"gpustream/internal/sorter"
)

// collect returns a core of the given window plus the record of every
// window the sink saw (copied, since the sink slice is reused).
func collect(window int) (*Core[float32], *[][]float32) {
	var wins [][]float32
	c := NewCore(window, func(win []float32) {
		wins = append(wins, append([]float32(nil), win...))
	})
	return c, &wins
}

func TestWindowingAndBatching(t *testing.T) {
	c, wins := collect(4)
	c.Process(1)
	c.ProcessSlice([]float32{2, 3, 4, 5, 6, 7, 8, 9, 10})
	if len(*wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(*wins))
	}
	for i, w := range *wins {
		if len(w) != 4 {
			t.Fatalf("window %d has %d values", i, len(w))
		}
	}
	if (*wins)[0][0] != 1 || (*wins)[1][3] != 8 {
		t.Fatalf("window contents wrong: %v", *wins)
	}
	if c.Count() != 10 || c.Buffered() != 2 {
		t.Fatalf("Count=%d Buffered=%d", c.Count(), c.Buffered())
	}
	if got := c.Stats().Windows; got != 2 {
		t.Fatalf("Stats().Windows = %d", got)
	}
}

func TestFlushPartialWindow(t *testing.T) {
	c, wins := collect(10)
	c.ProcessSlice([]float32{1, 2, 3})
	c.Flush()
	if len(*wins) != 1 || len((*wins)[0]) != 3 {
		t.Fatalf("partial flush: %v", *wins)
	}
	if c.Buffered() != 0 {
		t.Fatalf("Buffered = %d after Flush", c.Buffered())
	}
}

func TestFlushOnEmptyBufferIsNoop(t *testing.T) {
	c, wins := collect(10)
	c.Flush()
	if len(*wins) != 0 {
		t.Fatal("Flush on empty buffer invoked the sink")
	}
	if got := c.Stats().Windows; got != 0 {
		t.Fatalf("Windows = %d after empty Flush", got)
	}
}

func TestDoubleFlushIsNoop(t *testing.T) {
	c, wins := collect(10)
	c.ProcessSlice([]float32{1, 2, 3})
	c.Flush()
	c.Flush() // buffer now empty: must not re-invoke the sink
	if len(*wins) != 1 {
		t.Fatalf("double Flush produced %d windows, want 1", len(*wins))
	}
}

func TestCloseFlushesAndIsIdempotent(t *testing.T) {
	c, wins := collect(10)
	c.ProcessSlice([]float32{1, 2})
	c.Close()
	if len(*wins) != 1 {
		t.Fatal("Close did not flush the partial window")
	}
	if !c.Closed() {
		t.Fatal("Closed() false after Close")
	}
	c.Close() // idempotent
	c.Flush() // safe no-op after Close
	if len(*wins) != 1 {
		t.Fatalf("post-Close lifecycle produced %d windows", len(*wins))
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d after Close", c.Count())
	}
}

func TestProcessAfterCloseErrors(t *testing.T) {
	for name, fn := range map[string]func(c *Core[float32]) error{
		"Process":      func(c *Core[float32]) error { return c.Process(1) },
		"ProcessSlice": func(c *Core[float32]) error { return c.ProcessSlice([]float32{1}) },
	} {
		c, wins := collect(4)
		if err := fn(c); err != nil {
			t.Fatalf("%s before Close: %v", name, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		before := len(*wins)
		err := fn(c)
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close = %v, want ErrClosed", name, err)
		}
		if len(*wins) != before || c.Count() != 1 {
			t.Fatalf("%s after Close mutated state: windows %d->%d count %d",
				name, before, len(*wins), c.Count())
		}
	}
}

func TestStatsAccumulation(t *testing.T) {
	c, _ := collect(2)
	c.AddSort(time.Second, 100)
	c.AddMerge(2*time.Second, 10)
	c.AddCompress(3*time.Second, 5)
	c.AddIdle(time.Minute)
	st := c.Stats()
	if st.SortedValues != 100 || st.MergeOps != 10 || st.CompressOps != 5 {
		t.Fatalf("counters: %+v", st)
	}
	if st.Total() != 6*time.Second {
		t.Fatalf("Total = %v, want 6s (idle excluded)", st.Total())
	}
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.SortedValues != 200 || sum.Total() != 12*time.Second || sum.Idle != 2*time.Minute {
		t.Fatalf("Add: %+v", sum)
	}
}

// TestScratchReuse: a read's sorted copy of the partial window is scratch
// borrowed from the window-buffer pool for the call, not kept by the core,
// and sorting it leaves the live buffer as it was.
func TestScratchReuse(t *testing.T) {
	c := NewStagedCore(8, sorter.Func[float32]{SortFunc: slices.Sort[[]float32], Label: "slices"}, func([]float32) {})
	c.SortedPartialLocked(func(sorted []float32) {
		if sorted != nil {
			t.Fatalf("empty partial window read as %v", sorted)
		}
	})
	c.ProcessSlice([]float32{3, 1, 2})
	for range 2 {
		c.SortedPartialLocked(func(sorted []float32) {
			if !slices.Equal(sorted, []float32{1, 2, 3}) {
				t.Fatalf("sorted partial window %v", sorted)
			}
			sorted[0] = 9 // scratch: the live buffer must not see this
		})
		if got := c.Partial(); !slices.Equal(got, []float32{3, 1, 2}) {
			t.Fatalf("live partial window %v after a read", got)
		}
	}
}

func TestBufferPooling(t *testing.T) {
	// A closed core's window buffer goes to the spare store, and the next
	// core of the same window size takes it from there.
	c1, _ := collect(64)
	c1.ProcessSlice(make([]float32, 40))
	first := &c1.buf[0]
	c1.Close()
	c2, wins := collect(64)
	if &c2.buf[:1][0] != first {
		t.Fatal("a new core did not reuse the closed core's window buffer")
	}
	c2.ProcessSlice(make([]float32, 64))
	if len(*wins) != 1 || len((*wins)[0]) != 64 {
		t.Fatal("recycled core mis-windowed")
	}
	c2.Close()
}

func TestNewCorePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for window 0")
		}
	}()
	NewCore(0, func([]float32) {})
}

func TestSinkSliceReused(t *testing.T) {
	// The sink must treat its argument as borrowed: the core reuses the
	// backing array for the next window.
	var first []float32
	c := NewCore(2, func(win []float32) {
		if first == nil {
			first = win
		}
	})
	c.ProcessSlice([]float32{1, 2, 3, 4})
	if first[0] != 3 || first[1] != 4 {
		t.Fatalf("buffer not reused across windows: %v", first)
	}
}
