package quantile_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/shard"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// viewStream is what the test drives of a quantile stream, serial or
// sharded.
type viewStream interface {
	ProcessSlice([]float32) error
	Flush() error
	Snapshot() pipeline.View[float32]
}

// sharedCase builds one stream and names its feed unit: a sort window of
// the serial estimators, a hand-off batch of one window of the sharded one.
type sharedCase struct {
	name string
	make func() (viewStream, int)
}

var sharedCases = []sharedCase{
	{"eps=1e-2", func() (viewStream, int) {
		e := quantile.NewEstimator(0.01, 0, cpusort.QuicksortSorter[float32]{})
		return e, e.WindowSize()
	}},
	{"eps=1e-3", func() (viewStream, int) {
		e := quantile.NewEstimator(0.001, 0, cpusort.QuicksortSorter[float32]{})
		return e, e.WindowSize()
	}},
	{"parallel K=2 eps=1e-2", func() (viewStream, int) {
		w := quantile.Window(shard.QuantileEps(0.01, 2, false), 0)
		newSorter := func() sorter.Sorter[float32] { return cpusort.QuicksortSorter[float32]{} }
		return shard.NewQuantile(0.01, 2, newSorter, shard.Config[float32]{Batch: w}), w
	}},
}

// runShared is TestViewsSurviveRecycling's schedule on one stream: views
// after one window, after two and after a flush mid-cascade, each held and
// re-marshalled every ten of 200 more windows, and a view after every
// tenth of them. It returns every view's bytes in the order taken.
func runShared(c sharedCase, seed uint64) ([][]byte, error) {
	est, w := c.make()
	data := stream.Zipf(210*w, 1.1, 5000, seed)
	fed := 0
	feed := func(n int) error {
		err := est.ProcessSlice(data[fed : fed+n])
		fed += n
		return err
	}
	type held struct {
		name string
		view *quantile.Snapshot[float32]
		blob []byte
	}
	var views []held
	var blobs [][]byte
	take := func(name string) error {
		if err := est.Flush(); err != nil {
			return err
		}
		v := est.Snapshot().(*quantile.Snapshot[float32])
		blob, err := v.MarshalBinary()
		views = append(views, held{name, v, blob})
		blobs = append(blobs, blob)
		return err
	}
	steps := []struct {
		n    int
		name string
	}{{w, "one window"}, {w, "two windows"}, {5*w + w/2, "mid-cascade flush"}}
	for _, s := range steps {
		if err := feed(s.n); err != nil {
			return nil, err
		}
		if err := take(s.name); err != nil {
			return nil, err
		}
	}
	for i := range 200 {
		if err := feed(w); err != nil {
			return nil, err
		}
		if i%10 != 9 {
			continue
		}
		for _, h := range views {
			blob, err := h.view.MarshalBinary()
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(blob, h.blob) {
				return nil, fmt.Errorf("%s: view after %s changed after %d more windows", c.name, h.name, i+1)
			}
		}
		if err := take(fmt.Sprintf("window %d", i+1)); err != nil {
			return nil, err
		}
	}
	return blobs, nil
}

// TestViewsSurviveSharedRecycling runs quantile estimators at eps 1e-2 and
// 1e-3 and a K = 2 parallel-quantile concurrently, all recycling bucket
// storage through the one process-wide spare store. Every view each takes
// must stay as it was across 200 more windows, and be byte-identical to
// the view the same stream ingested alone took.
func TestViewsSurviveSharedRecycling(t *testing.T) {
	alone := make([][][]byte, len(sharedCases))
	for i, c := range sharedCases {
		blobs, err := runShared(c, uint64(30+i))
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = blobs
	}
	together := make([][][]byte, len(sharedCases))
	errs := make([]error, len(sharedCases))
	var wg sync.WaitGroup
	for i, c := range sharedCases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = runShared(c, uint64(30+i))
		}()
	}
	wg.Wait()
	for i, c := range sharedCases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(together[i]) != len(alone[i]) {
			t.Fatalf("%s: %d views together, %d alone", c.name, len(together[i]), len(alone[i]))
		}
		for k := range alone[i] {
			if !bytes.Equal(together[i][k], alone[i][k]) {
				t.Fatalf("%s: view %d differs from the stream ingested alone", c.name, k)
			}
		}
	}
}
