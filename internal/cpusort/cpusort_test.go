package cpusort

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"gpustream/internal/stream"
)

func toF32(raw []int32) []float32 {
	out := make([]float32, len(raw))
	for i, v := range raw {
		out[i] = float32(v)
	}
	return out
}

func checkSortsLike(t *testing.T, name string, fn func([]float32)) {
	t.Helper()
	prop := func(raw []int32) bool {
		data := toF32(raw)
		want := append([]float32(nil), data...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		fn(data)
		for i := range want {
			if data[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestQuicksortQuick(t *testing.T)     { checkSortsLike(t, "Quicksort", Quicksort) }
func TestHeapsortQuick(t *testing.T)      { checkSortsLike(t, "Heapsort", Heapsort) }
func TestInsertionSortQuick(t *testing.T) { checkSortsLike(t, "InsertionSort", InsertionSort) }
func TestParallelQuicksortQuick(t *testing.T) {
	checkSortsLike(t, "ParallelQuicksort", func(d []float32) { ParallelQuicksort(d, 4) })
}

func TestQuicksortLargeAndAdversarial(t *testing.T) {
	inputs := map[string][]float32{
		"uniform":  stream.Uniform(100000, 1),
		"sorted":   stream.Sorted(100000),
		"reversed": stream.ReverseSorted(100000),
		"constant": make([]float32, 100000),
		"fewvals":  stream.UniformInts(100000, 4, 2),
		"empty":    nil,
		"one":      {5},
		"two":      {7, 3},
	}
	for name, data := range inputs {
		d := append([]float32(nil), data...)
		Quicksort(d)
		if !IsSorted(d) {
			t.Fatalf("Quicksort failed on %s", name)
		}
		d2 := append([]float32(nil), data...)
		ParallelQuicksort(d2, 4)
		if !IsSorted(d2) {
			t.Fatalf("ParallelQuicksort failed on %s", name)
		}
	}
}

func TestQuicksortSpecials(t *testing.T) {
	inf := float32(math.Inf(1))
	d := []float32{inf, -inf, 0, inf, -1, 1, -inf}
	Quicksort(d)
	want := []float32{-inf, -inf, -1, 0, 1, inf, inf}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("specials sorted to %v", d)
		}
	}
}

func TestSortersInterface(t *testing.T) {
	data := stream.Uniform(5000, 9)
	for _, s := range []interface {
		Sort([]float32)
		Name() string
	}{QuicksortSorter[float32]{}, ParallelSorter[float32]{}, ParallelSorter[float32]{Workers: 3}} {
		d := append([]float32(nil), data...)
		s.Sort(d)
		if !IsSorted(d) {
			t.Fatalf("%s did not sort", s.Name())
		}
		if s.Name() == "" {
			t.Fatal("empty sorter name")
		}
	}
}

func TestMerge2(t *testing.T) {
	got := Merge2(nil, []float32{1, 3, 5}, []float32{2, 3, 6, 7})
	want := []float32{1, 2, 3, 3, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Merge2 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Merge2 = %v, want %v", got, want)
		}
	}
}

func TestMerge2Empty(t *testing.T) {
	if got := Merge2[float32](nil, nil, nil); len(got) != 0 {
		t.Fatalf("Merge2(nil,nil) = %v", got)
	}
	got := Merge2(nil, []float32{1}, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Merge2 one-sided = %v", got)
	}
}

func TestMerge4Property(t *testing.T) {
	prop := func(a, b, c, d []int32) bool {
		runs := [][]float32{toF32(a), toF32(b), toF32(c), toF32(d)}
		var all []float32
		for _, r := range runs {
			Quicksort(r)
			all = append(all, r...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		got := Merge4(runs[0], runs[1], runs[2], runs[3])
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKWayMergeProperty(t *testing.T) {
	prop := func(raw [][]int32) bool {
		if len(raw) > 16 {
			raw = raw[:16]
		}
		runs := make([][]float32, len(raw))
		var all []float32
		for i, r := range raw {
			runs[i] = toF32(r)
			Quicksort(runs[i])
			all = append(all, runs[i]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		got := KWayMerge(runs)
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKWayMergeEmpty(t *testing.T) {
	if got := KWayMerge[float32](nil); len(got) != 0 {
		t.Fatalf("KWayMerge[float32](nil) = %v", got)
	}
	if got := KWayMerge([][]float32{nil, {}, nil}); len(got) != 0 {
		t.Fatalf("KWayMerge(empties) = %v", got)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted[float32](nil) || !IsSorted([]float32{1}) || !IsSorted([]float32{1, 1, 2}) {
		t.Fatal("IsSorted false negative")
	}
	if IsSorted([]float32{2, 1}) {
		t.Fatal("IsSorted false positive")
	}
}

func TestDefaultWorkers(t *testing.T) {
	if w := DefaultWorkers(); w < 1 || w > 2 {
		t.Fatalf("DefaultWorkers = %d", w)
	}
}

func TestRadixSortQuick(t *testing.T) {
	checkSortsLike(t, "Radix.Sort", func(d []float32) { new(Radix[float32]).Sort(d) })
}

func TestRadixSortFloatEdgeCases(t *testing.T) {
	inf := float32(math.Inf(1))
	data := []float32{0, -0.0, 1.5, -1.5, inf, -inf, 1e-38, -1e-38, 3.4e38, -3.4e38}
	want := append([]float32(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	new(Radix[float32]).Sort(data)
	for i := range want {
		// Compare bitwise classes: -0.0 == 0.0 under ==, ordering between
		// them is unobservable, so value equality suffices.
		if data[i] != want[i] {
			t.Fatalf("radix edge sort = %v, want %v", data, want)
		}
	}
}

func TestRadixSortLargeMatchesQuicksort(t *testing.T) {
	data := stream.Gaussian(200000, 0, 1000, 31)
	a := append([]float32(nil), data...)
	b := append([]float32(nil), data...)
	new(Radix[float32]).Sort(a)
	Quicksort(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("radix diverged from quicksort at %d", i)
		}
	}
}

func TestRadixSortConstantInput(t *testing.T) {
	d := make([]float32, 1000)
	for i := range d {
		d[i] = 7
	}
	new(Radix[float32]).Sort(d)
	for _, v := range d {
		if v != 7 {
			t.Fatal("constant input mangled")
		}
	}
}
