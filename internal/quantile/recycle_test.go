package quantile

import (
	"bytes"
	"runtime"
	"testing"

	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
)

// TestViewsSurviveRecycling: a view never shares storage with a bucket, so
// the cascade writing new buckets into recycled bucket storage cannot reach
// it. Views are taken where that used to fail — after exactly one window and
// exactly two (a single bucket and nothing buffered: the view was the bucket
// itself) — and after a Flush in the middle of a carry sequence, and each
// must marshal to the same bytes across 200 more windows.
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

// spareProbe checks the spare storage after every window (Retune runs under
// the core lock right after a window was merged): the spares hold no more
// entries than the never-pruned levels' own buckets, so recycling never
// keeps a buffer the size of a pruned bucket or of a merged intermediate.
type spareProbe struct {
	t       *testing.T
	e       *Estimator[float32]
	largest []int // per level, the most entry storage a never-pruned bucket there has had
	windows int
}

func (p *spareProbe) Retune(pipeline.Stats, pipeline.Knobs[float32]) (pipeline.Knobs[float32], bool) {
	p.windows++
	for k, b := range p.e.levels {
		for len(p.largest) <= k {
			p.largest = append(p.largest, 0)
		}
		if b != nil && b.Eps <= p.e.eps/2 {
			p.largest[k] = max(p.largest[k], cap(b.Entries))
		}
	}
	held, bound := 0, 0
	for k, s := range p.e.spare {
		if s == nil {
			continue
		}
		if k >= len(p.largest) || p.largest[k] == 0 {
			p.t.Fatalf("window %d: a spare at level %d, where no never-pruned bucket has been", p.windows, k)
		}
		held += cap(s.Entries)
	}
	for _, n := range p.largest {
		bound += n
	}
	if held > bound {
		p.t.Fatalf("window %d: spares hold %d entries, the never-pruned levels %d", p.windows, held, bound)
	}
	return pipeline.Knobs[float32]{}, false
}

func TestSpareStorageBounded(t *testing.T) {
	for _, eps := range []float64{0.01, 0.001} {
		e := newCPU(eps, 0)
		probe := &spareProbe{t: t, e: e}
		e.SetTuner(probe)
		if err := e.ProcessSlice(stream.Zipf(300*e.WindowSize(), 1.1, 5000, 5)); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.CompressOps == 0 || len(e.spare) == 0 {
			t.Fatalf("eps=%v: %d spares after %d windows, %d entries pruned: nothing was recycled or nothing pruned", eps, len(e.spare), probe.windows, st.CompressOps)
		}
	}
}

// allocCeiling is the bytes allocated per value by ingesting 2^20 zipf
// values at eps 1e-3 with the window-buffer pool warm, plus ten percent:
// 21.17 when bucket storage recycling and the fused prune landed, 35.90
// before, when every bucket, combine and window summary was allocated
// fresh. The count is deterministic — the data, the windows and the cascade
// are — so the margin is for a later change, not for noise.
const allocCeiling = 21.17 * 1.1

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
