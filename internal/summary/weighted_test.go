package summary

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"gpustream/internal/stream"
)

// pairSet is a sortable (key, weight) sample.
type pairSet struct {
	xs []float32
	ys []float64
}

func randomPairs(n int, seed uint64) pairSet {
	r := stream.NewRNG(seed)
	p := pairSet{xs: make([]float32, n), ys: make([]float64, n)}
	for i := 0; i < n; i++ {
		p.xs[i] = float32(r.Float64() * 100)
		p.ys[i] = r.Float64() * 10
	}
	p.sort()
	return p
}

func (p *pairSet) sort() {
	idx := make([]int, len(p.xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.xs[idx[a]] < p.xs[idx[b]] })
	xs := make([]float32, len(p.xs))
	ys := make([]float64, len(p.ys))
	for i, j := range idx {
		xs[i], ys[i] = p.xs[j], p.ys[j]
	}
	p.xs, p.ys = xs, ys
}

// trueCum computes the exact cumulative weight at t.
func (p *pairSet) trueCum(t float32) float64 {
	total := 0.0
	for i, x := range p.xs {
		if x <= t {
			total += p.ys[i]
		}
	}
	return total
}

func (p *pairSet) totalW() float64 {
	total := 0.0
	for _, y := range p.ys {
		total += y
	}
	return total
}

func (p *pairSet) maxW() float64 {
	m := 0.0
	for _, y := range p.ys {
		if y > m {
			m = y
		}
	}
	return m
}

func checkWeightedError(t *testing.T, w *Weighted, p pairSet, slackEps float64) {
	t.Helper()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bound := slackEps*p.totalW() + p.maxW() + 1e-6
	for i := 0; i <= 50; i++ {
		tt := float32(i) * 2
		got := w.CumWeight(tt)
		truth := p.trueCum(tt)
		if d := got - truth; d > bound || d < -bound {
			t.Fatalf("CumWeight(%v) = %v, truth %v, |err| > %v", tt, got, truth, bound)
		}
	}
}

func TestWeightedFromSortedPairs(t *testing.T) {
	p := randomPairs(5000, 1)
	w := WeightedFromSortedPairs(p.xs, p.ys, 0.02)
	checkWeightedError(t, w, p, 0.01)
	// Space proportional to 1/eps.
	if w.Size() > 2*50+4 {
		t.Fatalf("size %d exceeds ~1/eps budget", w.Size())
	}
}

func TestWeightedExactWhenAllKept(t *testing.T) {
	p := randomPairs(100, 2)
	w := WeightedFromSortedPairs(p.xs, p.ys, 1e-9)
	for i := 0; i <= 20; i++ {
		tt := float32(i) * 5
		if got, truth := w.CumWeight(tt), p.trueCum(tt); got < truth-p.maxW()-1e-6 || got > truth+p.maxW()+1e-6 {
			t.Fatalf("dense summary CumWeight(%v) = %v, truth %v", tt, got, truth)
		}
	}
}

func TestWeightedMerge(t *testing.T) {
	a := randomPairs(3000, 3)
	b := randomPairs(2000, 4)
	wa := WeightedFromSortedPairs(a.xs, a.ys, 0.02)
	wb := WeightedFromSortedPairs(b.xs, b.ys, 0.02)
	m := MergeWeighted(wa, wb)
	combined := pairSet{xs: append(append([]float32(nil), a.xs...), b.xs...),
		ys: append(append([]float64(nil), a.ys...), b.ys...)}
	combined.sort()
	checkWeightedError(t, m, combined, 0.02)
	if m.W != wa.W+wb.W {
		t.Fatalf("merged W = %v", m.W)
	}
}

func TestWeightedMergeQuick(t *testing.T) {
	prop := func(rawA, rawB []uint8) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		mk := func(raw []uint8) pairSet {
			p := pairSet{}
			for i, v := range raw {
				p.xs = append(p.xs, float32(v%100))
				p.ys = append(p.ys, float64(raw[(i+1)%len(raw)]%10)+1)
			}
			p.sort()
			return p
		}
		a, b := mk(rawA), mk(rawB)
		m := MergeWeighted(
			WeightedFromSortedPairs(a.xs, a.ys, 0.1),
			WeightedFromSortedPairs(b.xs, b.ys, 0.1),
		)
		if m.Validate() != nil {
			return false
		}
		combined := pairSet{xs: append(append([]float32(nil), a.xs...), b.xs...),
			ys: append(append([]float64(nil), a.ys...), b.ys...)}
		combined.sort()
		bound := 0.1*combined.totalW() + combined.maxW() + 1e-6
		for i := 0; i <= 20; i++ {
			tt := float32(i * 5)
			if d := m.CumWeight(tt) - combined.trueCum(tt); d > bound || d < -bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPrune(t *testing.T) {
	p := randomPairs(10000, 5)
	w := WeightedFromSortedPairs(p.xs, p.ys, 0.002)
	pr := w.Prune(25)
	if pr.Size() > 26 {
		t.Fatalf("pruned size %d", pr.Size())
	}
	checkWeightedError(t, pr, p, pr.Eps)
}

func TestWeightedQueryWeight(t *testing.T) {
	p := randomPairs(5000, 6)
	w := WeightedFromSortedPairs(p.xs, p.ys, 0.01)
	half := w.W / 2
	v := w.QueryWeight(half)
	truth := p.trueCum(v)
	if d := truth - half; d > 0.02*w.W+p.maxW() || d < -(0.02*w.W+p.maxW()) {
		t.Fatalf("weighted median key %v has cum %v, want ~%v", v, truth, half)
	}
	// Clamping.
	if w.QueryWeight(-5) != w.QueryWeight(0) {
		t.Fatal("negative target not clamped")
	}
}

func TestWeightedEmptyAndPanics(t *testing.T) {
	w := WeightedFromSortedPairs(nil, nil, 0.1)
	if w.CumWeight(5) != 0 {
		t.Fatal("empty CumWeight != 0")
	}
	for _, fn := range []func(){
		func() { WeightedFromSortedPairs([]float32{1}, nil, 0.1) },
		func() { WeightedFromSortedPairs([]float32{1}, []float64{1}, 0) },
		func() { WeightedFromSortedPairs([]float32{2, 1}, []float64{1, 1}, 0.1) },
		func() { WeightedFromSortedPairs([]float32{1}, []float64{-1}, 0.1) },
		func() { w.QueryWeight(1) },
		func() { w.Prune(0) },
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

// TestWeightedRejectsNonFiniteWeights: a NaN weight would make every bound
// NaN, and a +Inf one the checkpoint step +Inf, on which the checkpoint
// loop never ends. Both must panic like a negative weight.
func TestWeightedRejectsNonFiniteWeights(t *testing.T) {
	for name, y := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1)} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "summary: non-finite weight" {
					t.Errorf("panic = %v, want the non-finite weight panic", r)
				}
			}()
			WeightedFromSortedPairs([]float32{1, 2, 3}, []float64{1, y, 1}, 0.1)
		})
	}
}

func TestWeightedUniformWeightsMatchRanks(t *testing.T) {
	// With unit weights the weighted summary must answer like the rank
	// summary: cum weight of x <= t equals the count of elements <= t.
	data := sortedCopy(stream.Uniform(2000, 7))
	ys := make([]float64, len(data))
	for i := range ys {
		ys[i] = 1
	}
	w := WeightedFromSortedPairs(data, ys, 0.02)
	for i := 0; i <= 10; i++ {
		tt := float32(i) / 10
		truth := float64(sort.Search(len(data), func(j int) bool { return data[j] > tt }))
		if d := w.CumWeight(tt) - truth; d > 0.02*2000+1 || d < -(0.02*2000+1) {
			t.Fatalf("unit-weight CumWeight(%v) = %v, truth %v", tt, w.CumWeight(tt), truth)
		}
	}
}
