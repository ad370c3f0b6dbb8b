package pipeline

import (
	"math/bits"
	"sync"
	"testing"
	"unsafe"
)

// A test-only element type has a store of its own, empty at the start.
type spareTestElem struct{ a, b int64 }

// TestSpareStoreBound puts buffers of every capacity from 1 to 5,000 from
// four goroutines at once: the store keeps at most one per class, each in
// the class its capacity names, and SpareBytes counts exactly those.
func TestSpareStoreBound(t *testing.T) {
	before := SpareBytes()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1 + g; n <= 5000; n += 4 {
				PutSpare(make([]spareTestElem, n%7, n))
			}
		}()
	}
	wg.Wait()
	st := sparesFor[spareTestElem]()
	var held int64
	for c, b := range st.slots {
		if b == nil {
			continue
		}
		if len(b) != 0 || spareClass(cap(b)) != c {
			t.Fatalf("class %d holds a buffer of len %d, cap %d", c, len(b), cap(b))
		}
		held += int64(cap(b)) * int64(unsafe.Sizeof(spareTestElem{}))
	}
	if want := bits.Len(5000); countSlots(st) != want {
		t.Fatalf("%d classes held, want %d (classes 1..%d)", countSlots(st), want, want)
	}
	if got := SpareBytes() - before; got != held {
		t.Fatalf("SpareBytes grew by %d, the slots hold %d", got, held)
	}
	for c := range bits.UintSize {
		TakeSpare[spareTestElem](1 << c >> 1)
	}
	if countSlots(st) != 0 || SpareBytes() != before {
		t.Fatalf("after taking every class: %d slots held, SpareBytes %d (was %d)", countSlots(st), SpareBytes(), before)
	}
}

func countSlots(st *spareStore[spareTestElem]) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, b := range st.slots {
		if b != nil {
			n++
		}
	}
	return n
}

// TestSpareTakeHandsOutTooSmall: a class hands out its buffer even when it
// is smaller than asked for, and the next class up is not consulted.
func TestSpareTakeHandsOutTooSmall(t *testing.T) {
	type elem struct{ v int32 }
	PutSpare(make([]elem, 0, 600))
	PutSpare(make([]elem, 0, 1500))
	if b := TakeSpare[elem](1000); cap(b) != 600 {
		t.Fatalf("TakeSpare(1000) = cap %d, want the class's 600", cap(b))
	}
	if b := TakeSpare[elem](1000); b != nil {
		t.Fatalf("an emptied class handed out cap %d", cap(b))
	}
	if b := TakeSpare[elem](1024); cap(b) != 1500 {
		t.Fatalf("TakeSpare(1024) = cap %d, want 1500", cap(b))
	}
	// TakeSpareAtLeast leaves a too-small spare to the collector.
	PutSpare(make([]elem, 0, 600))
	if b := TakeSpareAtLeast[elem](1000); cap(b) != 1000 {
		t.Fatalf("TakeSpareAtLeast(1000) = cap %d, want a fresh 1000", cap(b))
	}
	if b := TakeSpare[elem](1000); b != nil {
		t.Fatalf("TakeSpareAtLeast left cap %d in its class", cap(b))
	}
}

// TestSparePutTwiceKeptOnce: a buffer put while it is already held fills
// no second slot, so two takes never hand out one buffer.
func TestSparePutTwiceKeptOnce(t *testing.T) {
	type elem struct{ v int16 }
	b := make([]elem, 0, 100)
	PutSpare(b)
	PutSpare(b)
	if got := TakeSpare[elem](100); unsafe.SliceData(got) != unsafe.SliceData(b) {
		t.Fatal("the buffer put was not handed out")
	}
	if got := TakeSpare[elem](100); got != nil {
		t.Fatal("one buffer handed out twice")
	}
}
