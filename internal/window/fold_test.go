package window

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"gpustream/internal/cpusort"
	"gpustream/internal/histogram"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// chainBins is the left-to-right chain the sliding-frequency views answered
// through before fold: the partial pane's bins merged with one pane at a
// time, newest first, re-copying everything merged so far at every step. It
// is kept only as the reference fold is checked against.
func chainBins[T sorter.Value](panes []freqPane[T], partialBins []histogram.Bin[T], partialCount int64, span int) ([]histogram.Bin[T], int64) {
	bins := partialBins
	covered := partialCount
	for i := len(panes) - 1; i >= 0 && covered < int64(span); i-- {
		bins = histogram.Merge(bins, panes[i].bins)
		covered += panes[i].total
	}
	return bins, covered
}

// chainSummaries is chainBins for the sliding-quantile views.
func chainSummaries[T sorter.Value](panes []*summary.Summary[T], partial *summary.Summary[T], span int) *summary.Summary[T] {
	acc := partial
	covered := int64(0)
	if acc != nil {
		covered = acc.N
	}
	for i := len(panes) - 1; i >= 0 && covered < int64(span); i-- {
		if acc == nil {
			acc = panes[i]
		} else {
			acc = summary.Merge(acc, panes[i])
		}
		covered += panes[i].N
	}
	return acc
}

// sameBins is reflect.DeepEqual plus the sign of every value, which == (and
// so DeepEqual) cannot see: -0 and +0 share a bin, and the bin must carry
// the same one either way.
func sameBins(a, b []histogram.Bin[float64]) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a {
		if math.Signbit(a[i].Value) != math.Signbit(b[i].Value) {
			return false
		}
	}
	return true
}

// sameSummary is reflect.DeepEqual — the unexported ordered-rank flag
// included — plus the sign of every entry's value.
func sameSummary(a, b *summary.Summary[float64]) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if a == nil {
		return true
	}
	for i := range a.Entries {
		if math.Signbit(a.Entries[i].V) != math.Signbit(b.Entries[i].V) {
			return false
		}
	}
	return true
}

// tieStream draws n values from an alphabet of the given size centred on
// zero, so small alphabets tie heavily, with zero drawn as -0 or +0 at
// random.
func tieStream(rng *rand.Rand, n, alphabet int) []float64 {
	data := make([]float64, n)
	for i := range data {
		v := float64(rng.Intn(alphabet) - alphabet/2)
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		data[i] = v
	}
	return data
}

// foldCase is one ring built from data at (eps, w) per family.
type foldCase struct {
	freq  *FrequencySnapshot[float64]
	quant *QuantileSnapshot[float64]
}

func newFoldCase(eps float64, w int, data []float64) foldCase {
	f := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float64]{})
	q := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float64]{})
	f.ProcessSlice(data)
	q.ProcessSlice(data)
	return foldCase{f.Snapshot().(*FrequencySnapshot[float64]), q.Snapshot().(*QuantileSnapshot[float64])}
}

// checkCover compares both views' fold with the chain at every span in
// (0, W].
func checkCover(t *testing.T, name string, c foldCase) {
	t.Helper()
	fs, qs := c.freq, c.quant
	for span := 1; span <= fs.w; span++ {
		got, gotN := fs.cover(span)
		want, wantN := chainBins(fs.panes, fs.partialBins, fs.partialCount, span)
		if gotN != wantN || !sameBins(got, want) {
			t.Fatalf("%s: frequency span %d: fold (%d) %v, chain (%d) %v", name, span, gotN, got, wantN, want)
		}
	}
	for span := 1; span <= qs.w; span++ {
		if got, want := qs.cover(span), chainSummaries(qs.panes, qs.partial, span); !sameSummary(got, want) {
			t.Fatalf("%s: quantile span %d: fold %+v, chain %+v", name, span, got, want)
		}
	}
}

// checkFold runs checkCover on the ring built from data, then on the
// cross-process merge of rings built from its two halves, whose combined
// pane must be what merging the two chains gave.
func checkFold(t *testing.T, name string, eps float64, w int, data []float64) {
	t.Helper()
	checkCover(t, name, newFoldCase(eps, w, data))

	a := newFoldCase(eps, w, data[:len(data)/2])
	b := newFoldCase(eps, w/2+1, data[len(data)/2:])
	merged := foldCase{MergeFrequencySnapshots(a.freq, b.freq), MergeQuantileSnapshots(a.quant, b.quant)}
	binsA, nA := chainBins(a.freq.panes, a.freq.partialBins, a.freq.partialCount, a.freq.w)
	binsB, nB := chainBins(b.freq.panes, b.freq.partialBins, b.freq.partialCount, b.freq.w)
	if got := merged.freq; got.partialCount != nA+nB || !sameBins(got.partialBins, histogram.Merge(binsA, binsB)) {
		t.Fatalf("%s: merged frequency views differ from the merged chains", name)
	}
	ma := chainSummaries(a.quant.panes, a.quant.partial, a.quant.w)
	mb := chainSummaries(b.quant.panes, b.quant.partial, b.quant.w)
	want := ma
	switch {
	case ma == nil || ma.N == 0:
		want = mb
	case mb != nil && mb.N != 0:
		want = summary.Merge(ma, mb)
	}
	if !sameSummary(merged.quant.partial, want) {
		t.Fatalf("%s: merged quantile views differ from the merged chains", name)
	}
	checkCover(t, name+"/merged", merged)
}

// TestPaneFoldMatchesChain checks the pairwise fold against the chain it
// replaced, bit for bit, on both families: tie-heavy alphabets, -0 and +0,
// empty and lone panes, a ring before and after it fills, every span, and
// views that went through the cross-process merges.
func TestPaneFoldMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, alphabet := range []int{1, 2, 3, 7, 50} {
		for _, eps := range []float64{0.05, 0.2, 0.5} {
			for _, w := range []int{1, 7, 64, 200} {
				pane := PaneSize(eps, w)
				for _, n := range []int{0, 1, w / 2, pane, 3 * pane, w + pane/2, 3*w + 1} {
					name := fmt.Sprintf("alphabet=%d/eps=%v/w=%d/n=%d", alphabet, eps, w, n)
					checkFold(t, name, eps, w, tieStream(rng, n, alphabet))
				}
			}
		}
	}
}

// FuzzPaneFold is TestPaneFoldMatchesChain over fuzzed rings.
func FuzzPaneFold(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint16(63), uint16(200))
	f.Add(uint64(2), uint8(2), uint8(3), uint16(0), uint16(1))
	f.Add(uint64(3), uint8(49), uint8(5), uint16(255), uint16(1000))
	epsilons := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.9}
	f.Fuzz(func(t *testing.T, seed uint64, alphabet, epsSel uint8, w, n uint16) {
		rng := rand.New(rand.NewSource(int64(seed)))
		width := 1 + int(w%256)
		data := tieStream(rng, int(n)%(4*width+1), 1+int(alphabet%50))
		checkFold(t, "fuzz", epsilons[int(epsSel)%len(epsilons)], width, data)
	})
}

// TestQueryAllocationBounded pins the fold's growth: one live QueryWindow
// over a full ring allocates at most 2·W·⌈log₂(P+1)⌉ entries' worth of
// bytes. The chain it replaced re-copied what it had merged at every pane,
// about P·W/2 entries. At eps 0.01 a pane of 82 values keeps every rank as a
// summary entry, and all-distinct values keep every histogram bin.
func TestQueryAllocationBounded(t *testing.T) {
	const eps, w = 0.01, 1 << 14
	data := stream.Uniform(3*w, 9)
	q := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float32]{})
	f := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(data)
	f.ProcessSlice(data)
	rounds := bits.Len(uint(q.Panes())) // ⌈log₂(P+1)⌉
	allocated := func(query func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		query()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range []struct {
		name  string
		query func()
		entry uintptr
	}{
		{"quantile", func() { q.QueryWindow(0.5, w) }, unsafe.Sizeof(summary.Entry[float32]{})},
		{"frequency", func() { f.QueryWindow(0.5, w) }, unsafe.Sizeof(histogram.Bin[float32]{})},
	} {
		budget := 2 * w * uint64(rounds) * uint64(c.entry)
		if got := allocated(c.query); got > budget {
			t.Errorf("%s: one QueryWindow over %d panes allocated %d B, budget 2·W·%d entries = %d B", c.name, q.Panes(), got, rounds, budget)
		}
	}
}
