package summary

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gpustream/internal/cpusort"
	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

func sortedCopy(data []float32) []float32 {
	out := append([]float32(nil), data...)
	cpusort.Quicksort(out)
	return out
}

func TestFromSortedWindowExactWhenStepOne(t *testing.T) {
	win := sortedCopy(stream.Uniform(100, 1))
	s := FromSortedWindow(win, 0.001) // step 1: keeps everything
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := int64(1); r <= 100; r++ {
		v := s.QueryRank(r)
		if v != win[r-1] {
			t.Fatalf("rank %d: got %v want %v", r, v, win[r-1])
		}
	}
}

func TestFromSortedWindowErrorBound(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05, 0.1} {
		for _, n := range []int{100, 1000, 9999} {
			win := sortedCopy(stream.Uniform(n, uint64(n)))
			s := FromSortedWindow(win, eps)
			if err := s.Validate(); err != nil {
				t.Fatalf("eps=%v n=%d: %v", eps, n, err)
			}
			if got := oracle.New(win).GridError(s.QueryRank); got > eps/2+1e-9 {
				t.Fatalf("eps=%v n=%d: rank error %v > eps/2", eps, n, got)
			}
			// Space: about 1/eps + 2 entries.
			if s.Size() > int(1/eps)+3 {
				t.Fatalf("eps=%v n=%d: size %d exceeds budget", eps, n, s.Size())
			}
		}
	}
}

func TestFromSortedWindowDetectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted window accepted")
		}
	}()
	FromSortedWindow([]float32{3, 1, 2}, 0.1)
}

func TestFromSortedWindowEmpty(t *testing.T) {
	s := FromSortedWindow[float32](nil, 0.1)
	if s.N != 0 || s.Size() != 0 {
		t.Fatalf("empty window summary = %+v", s)
	}
}

func TestFromSortedWindowBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("eps=0 accepted")
		}
	}()
	FromSortedWindow([]float32{1}, 0)
}

func TestMergePreservesError(t *testing.T) {
	const eps = 0.05
	a := sortedCopy(stream.Uniform(2000, 2))
	b := sortedCopy(stream.Gaussian(3000, 0.5, 0.2, 3))
	sa := FromSortedWindow(a, eps)
	sb := FromSortedWindow(b, eps)
	m := Merge(sa, sb)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N != 5000 {
		t.Fatalf("merged N = %d", m.N)
	}
	if got := oracle.New(append(append([]float32(nil), a...), b...)).GridError(m.QueryRank); got > m.Eps+1e-9 {
		t.Fatalf("merged rank error %v > eps %v", got, m.Eps)
	}
}

func TestMergeQuick(t *testing.T) {
	prop := func(rawA, rawB []int16) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		a := make([]float32, len(rawA))
		for i, v := range rawA {
			a[i] = float32(v)
		}
		b := make([]float32, len(rawB))
		for i, v := range rawB {
			b[i] = float32(v)
		}
		cpusort.Quicksort(a)
		cpusort.Quicksort(b)
		const eps = 0.2
		m := Merge(FromSortedWindow(a, eps), FromSortedWindow(b, eps))
		if m.Validate() != nil {
			return false
		}
		return oracle.New(append(append([]float32(nil), a...), b...)).GridError(m.QueryRank) <= m.Eps+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeWithEmpty(t *testing.T) {
	win := sortedCopy(stream.Uniform(100, 4))
	s := FromSortedWindow(win, 0.1)
	empty := &Summary[float32]{Eps: 0.05}
	m1 := Merge(s, empty)
	m2 := Merge(empty, s)
	if m1.N != 100 || m2.N != 100 {
		t.Fatal("merge with empty lost elements")
	}
	if m1.QueryRank(50) != s.QueryRank(50) {
		t.Fatal("merge with empty changed answers")
	}
}

func TestPruneBoundsSizeAndError(t *testing.T) {
	win := sortedCopy(stream.Uniform(10000, 5))
	s := FromSortedWindow(win, 0.002) // large summary
	b := 20
	p := s.Prune(b)
	if p.Size() > b+1 {
		t.Fatalf("pruned size %d > b+1 = %d", p.Size(), b+1)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	wantEps := s.Eps + (1/(2*float64(b)) + 1/(2*float64(s.N))) // the grid's spacing and its rounding
	if math.Abs(p.Eps-wantEps) > 1e-12 {
		t.Fatalf("pruned eps = %v, want %v", p.Eps, wantEps)
	}
	if got := oracle.New(win).GridError(p.QueryRank); got > p.Eps+1e-9 {
		t.Fatalf("pruned rank error %v > eps %v", got, p.Eps)
	}
}

// TestPruneRoundingTerm pins the grid rounding a prune's Eps accounts:
// nine exact entries pruned to six keep the ranks ceil(9i/6) = 1, 2, 3, 5,
// 6, 8, 9, and rank 4, between 3 and 5, is answered one rank off — 1/9 of
// N, more than the 1/12 that 1/(2b) alone allows.
func TestPruneRoundingTerm(t *testing.T) {
	s := &Summary[float32]{N: 9}
	for r := int64(1); r <= 9; r++ {
		s.Entries = append(s.Entries, Entry[float32]{V: float32(r), RMin: r, RMax: r})
	}
	p := s.Prune(6)
	var kept []int64
	for _, e := range p.Entries {
		kept = append(kept, e.RMin)
	}
	if !slices.Equal(kept, []int64{1, 2, 3, 5, 6, 8, 9}) {
		t.Fatalf("kept ranks %v", kept)
	}
	if got := p.QueryRank(4); got != 3 && got != 5 {
		t.Fatalf("rank 4 answered %v", got)
	}
	if want := 1.0 / 9; p.Certificate() != want || !(p.Eps >= want) || p.Eps != 1.0/12+1.0/18 {
		t.Fatalf("pruned summary certifies %v and claims %v; rank 4 errs by %v", p.Certificate(), p.Eps, want)
	}
	if m := MergePruneInto(nil, s, &Summary[float32]{}, 6); !reflect.DeepEqual(m, p) {
		t.Fatalf("fused prune %+v, two-pass %+v", m, p)
	}
}

func TestPrunePanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Summary[float32]{}).Prune(0)
}

func TestQueryRankClamps(t *testing.T) {
	win := sortedCopy(stream.Uniform(100, 6))
	s := FromSortedWindow(win, 0.1)
	if s.QueryRank(-5) != s.QueryRank(1) {
		t.Fatal("low rank not clamped")
	}
	if s.QueryRank(1e9) != s.QueryRank(100) {
		t.Fatal("high rank not clamped")
	}
}

func TestQueryEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Summary[float32]{}).QueryRank(1)
}

func TestQueryQuantile(t *testing.T) {
	win := sortedCopy(stream.Sorted(1000))
	s := FromSortedWindow(win, 0.01)
	med := s.Query(0.5)
	if med < 480 || med > 520 {
		t.Fatalf("median of 0..999 reported as %v", med)
	}
	if s.Query(0) != win[0] {
		t.Fatalf("phi=0 gave %v", s.Query(0))
	}
	if s.Query(1) < 990 {
		t.Fatalf("phi=1 gave %v", s.Query(1))
	}
}

func TestGKErrorBound(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05} {
		for _, gen := range map[string][]float32{
			"uniform": stream.Uniform(20000, 7),
			"zipf":    stream.Zipf(20000, 1.1, 1000, 8),
			"sorted":  stream.Sorted(20000),
		} {
			g := NewGK[float32](eps)
			for _, v := range gen {
				g.Insert(v)
			}
			s := g.ToSummary()
			if got := oracle.New(gen).GridError(s.QueryRank); got > eps+1e-9 {
				t.Fatalf("eps=%v: GK[float32] rank error %v", eps, got)
			}
		}
	}
}

func TestGKSpaceSublinear(t *testing.T) {
	g := NewGK[float32](0.01)
	data := stream.Uniform(50000, 9)
	for _, v := range data {
		g.Insert(v)
	}
	if g.Size() > 2000 {
		t.Fatalf("GK[float32] size %d not sublinear (n=50000, eps=0.01)", g.Size())
	}
	if g.Count() != 50000 {
		t.Fatalf("Count = %d", g.Count())
	}
}

func TestGKQueryMedianAccuracy(t *testing.T) {
	g := NewGK[float32](0.01)
	for _, v := range stream.Sorted(10000) {
		g.Insert(v)
	}
	med := g.Query(0.5)
	if med < 4800 || med > 5200 {
		t.Fatalf("GK[float32] median = %v", med)
	}
}

func TestGKPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGK[float32](0) },
		func() { NewGK[float32](1) },
		func() { NewGK[float32](0.1).Query(0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestGKQuick(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 10 {
			return true
		}
		const eps = 0.1
		g := NewGK[float32](eps)
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
			g.Insert(float32(v))
		}
		s := g.ToSummary()
		return oracle.New(data).GridError(s.QueryRank) <= eps+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bad := []*Summary[float32]{
		{N: 10, Entries: []Entry[float32]{{V: 1, RMin: 0, RMax: 5}}},                           // rmin < 1
		{N: 10, Entries: []Entry[float32]{{V: 1, RMin: 2, RMax: 12}}},                          // rmax > N
		{N: 10, Entries: []Entry[float32]{{V: 1, RMin: 5, RMax: 3}}},                           // inverted
		{N: 10, Entries: []Entry[float32]{{V: 2, RMin: 1, RMax: 1}, {V: 1, RMin: 5, RMax: 5}}}, // unordered values
		{N: 10, Entries: []Entry[float32]{{V: 1, RMin: 1, RMax: 9}, {V: 2, RMin: 2, RMax: 3}}}, // RMax dips
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("bad summary %d validated", i)
		}
	}
}

func TestRepeatedMergeChainErrorStaysBounded(t *testing.T) {
	// Merge 8 windows pairwise like a sensor tree; error must stay at the
	// per-window eps since Merge does not inflate Eps.
	const eps = 0.05
	var all []float32
	var sums []*Summary[float32]
	for i := 0; i < 8; i++ {
		win := sortedCopy(stream.Uniform(1000, uint64(i+10)))
		all = append(all, win...)
		sums = append(sums, FromSortedWindow(win, eps))
	}
	for len(sums) > 1 {
		var next []*Summary[float32]
		for i := 0; i+1 < len(sums); i += 2 {
			next = append(next, Merge(sums[i], sums[i+1]))
		}
		if len(sums)%2 == 1 {
			next = append(next, sums[len(sums)-1])
		}
		sums = next
	}
	root := sums[0]
	if root.N != 8000 {
		t.Fatalf("root N = %d", root.N)
	}
	if got := oracle.New(all).GridError(root.QueryRank); got > root.Eps+1e-9 {
		t.Fatalf("tree-merged error %v > %v", got, root.Eps)
	}
	_ = sort.Float64s
}

func TestGKCompressEvery(t *testing.T) {
	data := stream.Uniform(20000, 33)
	lazy := NewGKCompressEvery[float32](0.01, 10000)
	eager := NewGKCompressEvery[float32](0.01, 10)
	for _, v := range data {
		lazy.Insert(v)
		eager.Insert(v)
	}
	if lazy.Size() <= eager.Size() {
		t.Fatalf("lazy compression should retain more tuples: lazy=%d eager=%d", lazy.Size(), eager.Size())
	}
	truth := oracle.New(data)
	for _, g := range []*GK[float32]{lazy, eager} {
		if got := truth.GridError(g.ToSummary().QueryRank); got > 0.01+1e-9 {
			t.Fatalf("rank error %v", got)
		}
	}
}

func TestGKCompressEveryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGKCompressEvery[float32](0.1, 0)
}
