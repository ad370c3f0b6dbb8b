package window

import (
	"slices"
	"sync"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

// TestSnapshotFoldsOnce answers from one sliding snapshot per family,
// then takes the snapshot's panes away: three phis, QueryWindow(·, W),
// heavy hitters and 100 point estimates must still give a fresh snapshot's
// answers, which they can only read from the fold made by the first answer.
func TestSnapshotFoldsOnce(t *testing.T) {
	const eps, w = 0.01, 4096
	data := stream.Zipf(3*w+w/3, 1.1, 500, 5)
	q := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float32]{})
	f := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(data)
	f.ProcessSlice(data)
	phis := []float64{0.1, 0.5, 0.9}
	quantiles := func(qs *QuantileSnapshot[float32]) (vals []float32) {
		for _, phi := range phis {
			v, ok := qs.Quantile(phi)
			if !ok {
				t.Fatal("empty window")
			}
			vals = append(vals, v, qs.QueryWindow(phi, w))
		}
		return vals
	}
	frequencies := func(fs *FrequencySnapshot[float32]) (hh []Item[float32], freqs []int64) {
		hh, _ = fs.HeavyHitters(0.01)
		hh = append(hh, fs.QueryWindow(0.01, w)...)
		for _, v := range data[:100] {
			est, _ := fs.Frequency(v)
			freqs = append(freqs, fs.Estimate(v), est)
		}
		return hh, freqs
	}
	wantVals := quantiles(q.Snapshot().(*QuantileSnapshot[float32]))
	wantHH, wantFreqs := frequencies(f.Snapshot().(*FrequencySnapshot[float32]))
	if len(wantHH) == 0 || slices.Max(wantFreqs) == 0 {
		t.Fatal("the stream has no heavy hitter: the test would not see a refold")
	}

	qs := q.Snapshot().(*QuantileSnapshot[float32])
	fs := f.Snapshot().(*FrequencySnapshot[float32])
	qs.Quantile(0.5)
	fs.HeavyHitters(0.01)
	qs.panes, qs.partial = nil, nil
	fs.panes, fs.partialBins, fs.partialCount = nil, nil, 0
	if got := quantiles(qs); !slices.Equal(got, wantVals) {
		t.Errorf("quantiles after the first answer = %v, want %v", got, wantVals)
	}
	if hh, freqs := frequencies(fs); !slices.Equal(hh, wantHH) || !slices.Equal(freqs, wantFreqs) {
		t.Error("frequency answers after the first answer differ from a fresh snapshot's")
	}
	if got := fs.QueryWindow(0.01, w/2); len(got) != 0 {
		t.Errorf("a half-window span read the whole window's fold: %d items", len(got))
	}
}

// TestSnapshotConcurrentReaders has goroutines race to a sliding snapshot's
// first answer and keep answering; every answer must equal the one a
// single reader of a fresh snapshot of the same state gets. Run it under
// -race.
func TestSnapshotConcurrentReaders(t *testing.T) {
	const eps, w, readers = 0.01, 2048, 8
	data := stream.Zipf(2*w+w/5, 1.1, 300, 9)
	q := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float32]{})
	f := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(data)
	f.ProcessSlice(data)
	phis := []float64{0.1, 0.5, 0.9}
	answers := func(qs *QuantileSnapshot[float32], fs *FrequencySnapshot[float32]) (vals []float32, hh []Item[float32], freqs []int64) {
		for _, phi := range phis {
			v, _ := qs.Quantile(phi)
			vals = append(vals, v)
		}
		hh, _ = fs.HeavyHitters(0.01)
		for _, v := range data[:50] {
			freqs = append(freqs, fs.Estimate(v))
		}
		return vals, hh, freqs
	}
	wantVals, wantHH, wantFreqs := answers(q.Snapshot().(*QuantileSnapshot[float32]), f.Snapshot().(*FrequencySnapshot[float32]))

	qs := q.Snapshot().(*QuantileSnapshot[float32])
	fs := f.Snapshot().(*FrequencySnapshot[float32])
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				vals, hh, freqs := answers(qs, fs)
				if !slices.Equal(vals, wantVals) || !slices.Equal(hh, wantHH) || !slices.Equal(freqs, wantFreqs) {
					errs <- "a concurrent reader's answers differ from a single reader's"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
