package quantile

import (
	"math"
	"slices"
	"sort"
	"testing"

	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// TestPruneBudgetRule drives the budget rule alone through 64 prunes, from
// both level-0 starting points: the spent error stays strictly below the
// cap, at least the closed form's (1 - 1/budgetShare)^k of the headroom
// survives, and the entry budget stays finite and never shrinks.
func TestPruneBudgetRule(t *testing.T) {
	for _, eps := range []float64{0.05, 0.01, 0.001, 1e-6} {
		errCap := eps * (1 - viewShare)
		for _, spent := range []float64{0, eps / 2} {
			headroom0, prev := errCap-spent, 0
			for k := 1; k <= 64; k++ {
				b := pruneBudget(errCap - spent)
				if b < prev || b <= 0 || b == math.MaxInt {
					t.Fatalf("eps=%v prune %d: budget %d after %d", eps, k, b, prev)
				}
				prev = b
				spent += 1 / (2 * float64(b))
				if !(spent < errCap) {
					t.Fatalf("eps=%v prune %d: spent %v reached the cap %v", eps, k, spent, errCap)
				}
				if floor := headroom0 * math.Pow(1-1.0/budgetShare, float64(k)); errCap-spent < floor*(1-1e-9) {
					t.Fatalf("eps=%v prune %d: headroom %v below the closed form's %v", eps, k, errCap-spent, floor)
				}
			}
		}
	}
	// No headroom left to measure: the budget saturates, which no summary
	// can outgrow, so nothing more is ever spent.
	for _, h := range []float64{0, 1e-300, 1e-19} {
		if b := pruneBudget(h); b != math.MaxInt {
			t.Fatalf("pruneBudget(%v) = %d, want saturation", h, b)
		}
	}
}

// TestCombineFortyLevels carries one bucket up 42 levels of the real
// combine by merging it with itself: the stream is then the window repeated
// 2^k times, whose exact ranks are known without holding it.
func TestCombineFortyLevels(t *testing.T) {
	const eps = 0.01
	e := newCPU(eps, 0)
	win := stream.Uniform(e.WindowSize(), 12)
	slices.Sort(win)
	s := windowSummary(nil, win, eps)
	for k := 1; k <= 42; k++ {
		budget := pruneBudget(e.cap - s.Eps)
		s = e.combine(k-1, s, s)
		if !(s.Eps < e.cap) || s.Size() > budget+1 {
			t.Fatalf("level %d: spent %v (cap %v), %d entries (budget %d)", k, s.Eps, e.cap, s.Size(), budget)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		// A value at window rank i holds stream ranks (i-1)*2^k+1 .. i*2^k.
		copies := int64(1) << k
		for i := 1; i < 100; i++ {
			r := int64(math.Ceil(float64(i) / 100 * float64(s.N)))
			v := s.QueryRank(r)
			lo := int64(sort.Search(len(win), func(j int) bool { return win[j] >= v }))*copies + 1
			hi := int64(sort.Search(len(win), func(j int) bool { return win[j] > v })) * copies
			if d := max(lo-r, r-hi, 0); float64(d) > eps*float64(s.N) {
				t.Fatalf("level %d: rank %d answered %d ranks off, eps*N = %v", k, r, d, eps*float64(s.N))
			}
		}
	}
	if st := e.Stats(); st.CompressOps == 0 {
		t.Fatalf("42 levels never pruned: %+v", st)
	}
}

// budgetProbe is a pinned-schedule tuner that walks the window through a
// fixed cycle. Retune runs under the core lock right after a window was
// merged, so it is also where every live bucket can be checked.
type budgetProbe struct {
	t       testing.TB
	e       *Estimator[float32]
	windows []int
	calls   int
}

func (p *budgetProbe) Retune(_ pipeline.Stats, _ pipeline.Knobs[float32]) (pipeline.Knobs[float32], bool) {
	for k, b := range p.e.levels {
		if b != nil && !(b.Eps >= 0 && b.Eps <= p.e.cap) {
			p.t.Errorf("window %d: level %d has spent %v, cap %v", p.calls, k, b.Eps, p.e.cap)
		}
	}
	p.calls++
	return pipeline.Knobs[float32]{Window: p.windows[p.calls%len(p.windows)]}, true
}

var budgetInputs = []func(n int, seed uint64) []float32{
	func(n int, _ uint64) []float32 { return stream.Sorted(n) },
	func(n int, _ uint64) []float32 { return stream.ReverseSorted(n) },
	func(n int, _ uint64) []float32 { return make([]float32, n) },
	func(n int, seed uint64) []float32 { return stream.Zipf(n, 1.1, n/100+10, seed) },
	stream.Uniform,
}

var budgetEps = []float64{0.05, 0.01, 0.001}

// checkBudget feeds one input through an estimator in random-sized calls,
// with random Flushes and a tuner that grows and shrinks the window
// mid-stream. After every window every bucket is within the cap (the
// probe), every snapshot on the way claims at most eps, and the final
// answers at 101 evenly spaced ranks are within eps*N of an exact sorted
// copy.
func checkBudget(t testing.TB, input, epsIdx int, seed uint64) {
	eps := budgetEps[epsIdx]
	e := newCPU(eps, 0)
	base := e.WindowSize()
	probe := &budgetProbe{t: t, e: e, windows: []int{base, 2 * base, base/3 + 1, 17, base, 3 * base / 2, 1}}
	e.SetTuner(probe)
	data := budgetInputs[input](60*base, seed)
	rng := stream.NewRNG(seed)

	checkView := func(fed int) *summary.Summary[float32] {
		s := e.Snapshot().(*Snapshot[float32]).Summary()
		if s.N != int64(fed) || !(s.Eps <= eps) {
			t.Fatalf("after %d values: snapshot covers %d and claims eps %v, configured %v", fed, s.N, s.Eps, eps)
		}
		return s
	}
	for fed := 0; fed < len(data); {
		n := min(1+rng.Intn(2*base), len(data)-fed)
		if err := e.ProcessSlice(data[fed : fed+n]); err != nil {
			t.Fatal(err)
		}
		fed += n
		switch rng.Intn(8) {
		case 0, 1:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		case 2:
			checkView(fed)
		}
	}
	if st := e.Stats(); probe.calls < 60 || st.CompressOps == 0 {
		t.Fatalf("%d windows, %d entries pruned: the schedule did not reach the budget", probe.calls, st.CompressOps)
	}

	s := checkView(len(data))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := slices.Clone(data)
	slices.Sort(ref)
	if got := s.TrueRankError(ref); got > eps {
		t.Fatalf("rank error %v over 101 probed ranks, eps %v", got, eps)
	}
}

func TestCascadeBudgetProperty(t *testing.T) {
	for input := range budgetInputs {
		for epsIdx := range budgetEps {
			for seed := uint64(1); seed <= 3; seed++ {
				checkBudget(t, input, epsIdx, seed)
			}
		}
	}
}

// FuzzCascadeBudget lets the fuzzer pick the input shape, eps and the seed
// behind the call sizes, Flush schedule and data.
func FuzzCascadeBudget(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint64(1))
	f.Add(uint8(0), uint8(0), uint64(7))
	f.Fuzz(func(t *testing.T, input, epsIdx uint8, seed uint64) {
		checkBudget(t, int(input)%len(budgetInputs), int(epsIdx)%len(budgetEps), seed)
	})
}

// TestFlushOffWindowBoundary: a Flush pushes a short window whose every rank
// is kept; FromSortedWindow reports step/(2w) for it — above eps for 288
// values at eps 1e-3 — and it must still count as nothing spent.
func TestFlushOffWindowBoundary(t *testing.T) {
	for _, eps := range []float64{1e-2, 1e-3} {
		window := newCPU(eps, 0).WindowSize()
		for _, buffered := range []int{1, 7, 288, window - 1} {
			e := newCPU(eps, 0)
			data := stream.Zipf(8*(2*window+buffered), 1.1, 500, uint64(buffered))
			for off := 0; off < len(data); off += 2*window + buffered {
				e.ProcessSlice(data[off : off+2*window+buffered])
				if got := e.core.Buffered(); got != buffered {
					t.Fatalf("eps=%v: %d buffered before Flush, want %d", eps, got, buffered)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				for k, b := range e.levels {
					if b != nil && !(b.Eps <= e.cap) {
						t.Fatalf("eps=%v, Flush of %d: level %d has spent %v, cap %v", eps, buffered, k, b.Eps, e.cap)
					}
				}
			}
			if s := e.Summary(); !(s.Eps <= eps) {
				t.Fatalf("eps=%v, Flush of %d: snapshot claims eps %v", eps, buffered, s.Eps)
			}
			if got := rankError(t, e, data); got > eps {
				t.Fatalf("eps=%v, Flush of %d: rank error %v", eps, buffered, got)
			}
		}
	}
}
