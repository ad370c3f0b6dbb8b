package pipeline

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// spareStores holds the process's recycled estimator storage — window
// buffers, summary entries, histogram bins — one store per element type
// behind a sync.Map keyed by reflect.Type (DESIGN.md section 33). Every
// estimator of a type shares its store: the daemon's streams, a sharded
// estimator's shards and library users alike, so a process retains one
// spare set, not one per estimator.
var spareStores sync.Map // reflect.Type -> *spareStore[E]

// spareBytes is the storage the spare stores retain, every type together.
var spareBytes atomic.Int64

// spareStore keeps at most one buffer per capacity class, the bit length
// of the buffer's capacity, so a store of any type never holds more than
// bits.UintSize+1 buffers. It is not a sync.Pool: a pool the collector
// empties makes ingest allocation depend on when the collector last ran,
// it keeps any number of buffers, and its victim cache outlives the
// estimators that filled it by a cycle.
type spareStore[E any] struct {
	mu    sync.Mutex
	slots [bits.UintSize + 1][]E
}

func sparesFor[E any]() *spareStore[E] {
	key := reflect.TypeOf((*E)(nil)).Elem()
	if s, ok := spareStores.Load(key); ok {
		return s.(*spareStore[E])
	}
	s, _ := spareStores.LoadOrStore(key, &spareStore[E]{})
	return s.(*spareStore[E])
}

// spareClass is the class of a buffer of capacity n: its bit length.
func spareClass(n int) int { return bits.Len(uint(n)) }

func sizeBytes[E any](b []E) int64 {
	var z E
	return int64(cap(b)) * int64(unsafe.Sizeof(z))
}

// TakeSpare hands out the spare buffer of n's capacity class, emptied, and
// empties the class; nil when the class holds none. The buffer may hold
// fewer than n elements, since a class spans a factor of two: the caller
// grows it, as summary.MergeInto does. Handing it out anyway keeps the
// slot turning over: a too-small buffer left in place would block its
// class for every buffer that fits.
func TakeSpare[E any](n int) []E {
	st := sparesFor[E]()
	c := spareClass(n)
	st.mu.Lock()
	defer st.mu.Unlock()
	b := st.slots[c]
	st.slots[c] = nil
	spareBytes.Add(-sizeBytes(b))
	return b
}

// TakeSpareAtLeast is TakeSpare for a buffer that must hold n elements
// without growing: a spare too small for n is left to the collector and a
// fresh buffer of capacity n made instead.
func TakeSpareAtLeast[E any](n int) []E {
	if b := TakeSpare[E](n); cap(b) >= n {
		return b
	}
	return make([]E, 0, n)
}

// PutSpare gives b's storage to the store, which keeps it if its class is
// empty and leaves it to the collector otherwise. It transfers ownership:
// the caller must hold no other reference to b, and must put one buffer
// once — a buffer put twice could be taken by two estimators in between.
func PutSpare[E any](b []E) {
	if cap(b) == 0 {
		return
	}
	st := sparesFor[E]()
	c := spareClass(cap(b))
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.slots[c] == nil {
		st.slots[c] = b[:0]
		spareBytes.Add(sizeBytes(b))
	}
}

// SpareBytes reports the bytes of storage the spare stores retain, every
// element type together.
func SpareBytes() int64 { return spareBytes.Load() }
