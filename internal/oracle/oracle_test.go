package oracle

import (
	"math"
	"testing"

	"gpustream/internal/pipeline"
)

// view is a planted answer: fixed quantiles, a fixed estimate list, and
// point estimates that default to the list's.
type view struct {
	quantiles map[float64]float32
	items     []pipeline.Item[float32]
	points    map[float32]int64 // overrides the list for Frequency
}

func (v view) Count() int64 { return 0 }
func (v view) Size() int    { return 0 }
func (v view) Quantile(phi float64) (float32, bool) {
	q, ok := v.quantiles[phi]
	return q, ok
}
func (v view) HeavyHitters(support float64) ([]pipeline.Item[float32], bool) {
	return v.items, v.items != nil
}
func (v view) Frequency(x float32) (int64, bool) {
	if f, ok := v.points[x]; ok {
		return f, true
	}
	for _, it := range v.items {
		if it.Value == x {
			return it.Freq, true
		}
	}
	return 0, true
}

func TestTruthRanks(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	tr := New([]float32{3, 1, 2, 2, 0, negZero, nan, float32(math.Inf(-1))})
	if tr.N() != 8 || tr.Distinct() != 6 {
		t.Fatalf("N = %d, distinct = %d", tr.N(), tr.Distinct())
	}
	for _, c := range []struct {
		v      float32
		lo, hi int64
	}{
		{float32(math.Inf(-1)), 1, 1},
		{0, 2, 3}, // -0 and +0 are one value
		{negZero, 2, 3},
		{2, 5, 6},
		{2.5, 7, 6}, // absent: hi = lo - 1
		{nan, 8, 8}, // a positive NaN sorts last, as the sorter puts it
	} {
		if lo, hi := tr.Ranks(c.v); lo != c.lo || hi != c.hi {
			t.Errorf("Ranks(%v) = [%d, %d], want [%d, %d]", c.v, lo, hi, c.lo, c.hi)
		}
	}
	if d := tr.Distance(2, 4); d != 1 {
		t.Errorf("Distance(2, 4) = %d, want 1", d)
	}
	if d6, d7 := tr.Distance(2.5, 6), tr.Distance(2.5, 7); d6 != 1 || d7 != 1 {
		t.Errorf("Distance(2.5, 6 and 7) = %d, %d, want 1: an absent value holds no rank", d6, d7)
	}
	if a := tr.Absent(); tr.Count(a) != 0 {
		t.Errorf("Absent() = %v, which occurs %d times", a, tr.Count(a))
	}
	if got := Target(0, 10); got != 1 {
		t.Errorf("Target(0, 10) = %d, want 1", got)
	}
	if got := Target(0.55, 10); got != 6 {
		t.Errorf("Target(0.55, 10) = %d, want 6", got)
	}
	if got := Suffix([]float32{9, 9, 1, 2}, 2); got.N() != 2 || got.Count(9) != 0 {
		t.Errorf("Suffix kept %d values, %d nines", got.N(), got.Count(9))
	}
}

// TestOracleCatchesWrongAnswers plants one violation per checker.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	data := make([]float32, 100)
	for i := range data {
		data[i] = float32(i % 10) // ten values, ten times each
	}
	tr := New(data)

	good := view{quantiles: map[float64]float32{0: 0, 0.5: 4, 1: 9}}
	if _, err := Quantiles(tr, good, []float64{0, 0.5, 1}, 0.01); err != nil {
		t.Fatalf("exact quantiles rejected: %v", err)
	}
	// The median's target is rank 50, the last 4; a 6 (ranks 61-70) lies
	// 11 ranks off: within eps·N + 1 at eps = 0.1, over it by one at 0.09.
	off := view{quantiles: map[float64]float32{0.5: 6}}
	if d, err := Quantiles(tr, off, []float64{0.5}, 0.1); err != nil || d != 11 {
		t.Fatalf("a median 11 ranks off at eps = 0.1: distance %d, err %v", d, err)
	}
	if _, err := Quantiles(tr, off, []float64{0.5}, 0.09); err == nil {
		t.Fatal("a median 11 ranks off passed eps·N + 1 = 10")
	}
	if _, err := Quantiles(tr, good, []float64{0.25}, 0.1); err == nil {
		t.Fatal("an unanswered phi passed")
	}
	if _, err := Frequencies(tr, good, 0.1, false); err == nil {
		t.Fatal("a view that lists no estimates passed")
	}

	exact := make([]pipeline.Item[float32], 10)
	for i := range exact {
		exact[i] = pipeline.Item[float32]{Value: float32(i), Freq: 10}
	}
	if worst, err := Frequencies(tr, view{items: exact}, 0, false); err != nil || worst != 0 {
		t.Fatalf("exact counts: worst %d, err %v", worst, err)
	}
	over := append([]pipeline.Item[float32](nil), exact...)
	over[3].Freq = 11
	if _, err := Frequencies(tr, view{items: over}, 0.1, false); err == nil {
		t.Fatal("an over-count passed")
	}
	if _, err := Frequencies(tr, view{items: over}, 0.1, true); err != nil {
		t.Fatalf("a sliding over-count within eps·N failed: %v", err)
	}
	// Nothing listed: every value is undercounted by its 10.
	if _, err := Frequencies(tr, view{items: []pipeline.Item[float32]{}}, 0.09, false); err == nil {
		t.Fatal("an undercount of 10 passed eps·N = 9")
	}
	if _, err := Frequencies(tr, view{items: []pipeline.Item[float32]{}}, 0.1, false); err != nil {
		t.Fatalf("an undercount of 10 failed eps·N = 10: %v", err)
	}
	phantom := append([]pipeline.Item[float32](nil), exact...)
	phantom = append(phantom, pipeline.Item[float32]{Value: 42, Freq: 1})
	if _, err := Frequencies(tr, view{items: phantom}, 0.1, false); err == nil {
		t.Fatal("a listed value the stream does not hold passed")
	}

	if err := Support(tr, exact[:9], 0.1); err == nil {
		t.Fatal("a missing heavy hitter passed")
	}
	if err := Support(tr, exact, 0.1); err != nil {
		t.Fatalf("a complete answer failed: %v", err)
	}
}

// TestOraclePointProbesMatchList plants a point estimate that disagrees
// with the view's own list: the probe check must fail on it and on a
// phantom count for an absent value, and pass when they agree.
func TestOraclePointProbesMatchList(t *testing.T) {
	items := []pipeline.Item[float32]{{Value: 1, Freq: 5}, {Value: 2, Freq: 3}}
	probes := []float32{1, 2, 7}
	if err := Probes(view{items: items}, items, probes); err != nil {
		t.Fatalf("agreeing view failed: %v", err)
	}
	if err := Probes(view{items: items, points: map[float32]int64{2: 4}}, items, probes); err == nil {
		t.Fatal("Frequency(2) = 4 against a listed 3 passed")
	}
	if err := Probes(view{items: items, points: map[float32]int64{7: 1}}, items, probes); err == nil {
		t.Fatal("Frequency(7) = 1 for an unlisted value passed")
	}
}

func TestGridError(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(i)
	}
	tr := New(data)
	exact := func(r int64) float32 { return float32(r - 1) }
	if e := tr.GridError(exact); e != 0 {
		t.Fatalf("exact rank query: %v", e)
	}
	shifted := func(r int64) float32 { return float32(min(r+5, 1000) - 1) }
	if e := tr.GridError(shifted); e != 0.005 {
		t.Fatalf("a query 5 ranks high: %v, want 0.005", e)
	}
	if w := tr.WorstRank(shifted, Every(1000)); w != 5 {
		t.Fatalf("WorstRank = %d, want 5", w)
	}
}
