package quantile

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// checkCertificate requires s's Certificate to bound its exact error over
// every rank and to be no more than its a-priori Eps.
func checkCertificate[T sorter.Value](t *testing.T, name string, s *summary.Summary[T], data []T) {
	t.Helper()
	if s.N != int64(len(data)) {
		t.Fatalf("%s: summary covers %d values, data %d", name, s.N, len(data))
	}
	c := s.Certificate()
	if s.N == 0 {
		if c != 0 {
			t.Fatalf("%s: empty summary certifies %v", name, c)
		}
		return
	}
	if worst := oracle.New(data).WorstRank(s.QueryRank, oracle.Every(s.N)); float64(worst)/float64(s.N) > c {
		t.Fatalf("%s: %d entries over %d values certify %v, but rank error reaches %d (%v)",
			name, s.Size(), s.N, c, worst, float64(worst)/float64(s.N))
	}
	if c > s.Eps*(1+1e-12) {
		t.Fatalf("%s: certificate %v exceeds the a-priori Eps %v", name, c, s.Eps)
	}
}

// sortedByKey returns a copy of vals in the sorter's order.
func sortedByKey[T sorter.Value](vals []T) []T {
	out := slices.Clone(vals)
	sortByKey(out)
	return out
}

// certInputs are the acceptance matrix's distributions plus duplicates,
// signed zeros, and NaNs with infinities (FuzzPairLevel0's specials). keyOrdered marks inputs only summaries built in
// key order may see: Merge compares with <, which orders no NaN, so a merge
// over NaNs records ranks no total order has.
var certInputs = []struct {
	name       string
	gen        func(n int, seed uint64) []float32
	keyOrdered bool
}{
	{"uniform", stream.Uniform, false},
	{"zipf", func(n int, seed uint64) []float32 { return stream.Zipf(n, 1.2, n/100+5, seed) }, false},
	{"sorted", func(n int, _ uint64) []float32 { return stream.Sorted(n) }, false},
	{"bursty", func(n int, seed uint64) []float32 { return stream.Bursty(n, n/50+5, n/100+1, 0.01, seed) }, false},
	{"duplicates", func(n int, seed uint64) []float32 { return stream.UniformInts(n, 3, seed) }, false},
	{"signed zeros", func(n int, seed uint64) []float32 { return pairValues[float32](n, seed) }, false},
	{"NaN and infinities", func(n int, seed uint64) []float32 {
		vals := pairValues[float32](n, seed)
		rng := stream.NewRNG(seed)
		for i := range vals {
			if rng.Intn(4) == 0 {
				vals[i] = pairFuzzSpecials[rng.Intn(len(pairFuzzSpecials))]
			}
		}
		return vals
	}, true},
}

// checkCertificateOps builds every kind of summary the estimators make from
// data — a level-0 pair split at cut, its prunes, the merge and fused
// merge-prune of two pairs, and a small cascade of fused merge-prunes — and
// checks each one's certificate against the exact error.
func checkCertificateOps(t *testing.T, name string, data []float32, cut int, eps float64, keyOrdered bool) {
	t.Helper()
	pairOf := func(part []float32, cut int) *summary.Summary[float32] {
		c := windowSummary(nil, sortedByKey(part[:cut]), sortedByKey(part[cut:]), eps)
		s := c.Summary()
		if c.Certificate() != s.Certificate() {
			t.Fatalf("%s: compact pair certifies %v, its entries %v", name, c.Certificate(), s.Certificate())
		}
		return s
	}
	pair := pairOf(data, cut)
	checkCertificate(t, name+", level-0 pair", pair, data)
	if m := pair.Size(); m >= 3 {
		// Without its end entries, rank 1 and rank N are answered from the
		// nearest ones left: only the boundary terms certify that. Eps 1
		// claims nothing.
		ends := &summary.Summary[float32]{Entries: pair.Entries[1 : m-1], N: pair.N, Eps: 1}
		checkCertificate(t, name+", pair without its ends", ends, data)
	}
	for _, b := range []int{1, 2, 7, pair.Size() / 3, pair.Size() - 2} {
		if b > 0 {
			checkCertificate(t, name+", pruned pair", pair.Prune(b), data)
		}
	}
	if keyOrdered || len(data) < 4 {
		return
	}
	half := len(data) / 2
	a, b := pairOf(data[:half], half/3), pairOf(data[half:], half/2)
	checkCertificate(t, name+", merged pairs", summary.MergeInto(nil, a, b), data)
	size := a.Size() + b.Size()
	for _, budget := range []int{1, 3, size / 4, size - 2} {
		if budget > 0 {
			checkCertificate(t, name+", merged and pruned pairs", summary.MergePruneInto(nil, a, b, budget), data)
		}
	}
	// Four quarters folded as the cascade does, each combine pruned.
	q := len(data) / 4
	acc := pairOf(data[:q], q/2)
	for i := 1; i < 4; i++ {
		part := data[i*q : (i+1)*q]
		if i == 3 {
			part = data[i*q:]
		}
		acc = summary.MergePruneInto(nil, acc, pairOf(part, len(part)/2), max(2, (acc.Size()+len(part))/5))
	}
	checkCertificate(t, name+", pruned cascade", acc, data)
}

// checkViewCertificates feeds data to an estimator in uneven calls with
// Flushes between some of them, and checks every few calls that the view's
// certificate bounds its exact error and is its Eps.
func checkViewCertificates(t *testing.T, name string, data []float32, eps float64, seed uint64) {
	t.Helper()
	e := newCPU(eps, 0)
	rng := stream.NewRNG(seed)
	for fed := 0; fed < len(data); {
		n := min(1+rng.Intn(e.WindowSize()), len(data)-fed)
		if err := e.ProcessSlice(data[fed : fed+n]); err != nil {
			t.Fatal(err)
		}
		fed += n
		if rng.Intn(3) == 0 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(4) == 0 || fed == len(data) {
			v := e.Summary()
			checkCertificate(t, name+", estimator view", v, data[:fed])
			if v.Eps != v.Certificate() {
				t.Fatalf("%s: view Eps %v is not its certificate %v", name, v.Eps, v.Certificate())
			}
		}
	}
}

// TestCertificateBoundsExactError: on every input and summary kind the
// estimators build, Certificate bounds the worst error over every rank
// 1..N and is no more than the a-priori Eps the summary's construction
// accounts (Prune's grid rounding included).
func TestCertificateBoundsExactError(t *testing.T) {
	for i, in := range certInputs {
		for _, eps := range []float64{0.05, 0.01} {
			for _, n := range []int{1, 2, 3, 9, 97, 3000} {
				seed := uint64(100*i + n)
				data := in.gen(n, seed)
				checkCertificateOps(t, in.name, data, n/3, eps, in.keyOrdered)
				checkCertificateOps(t, in.name, data, n, eps, in.keyOrdered)
				if !in.keyOrdered {
					checkViewCertificates(t, in.name, data, eps, seed)
				}
			}
		}
		if !in.keyOrdered {
			checkViewCertificates(t, in.name, in.gen(40_000, uint64(i)), 0.01, uint64(i))
		}
	}
}

// FuzzCertificate is the soundness check on fuzzed inputs: the fuzzer
// picks the values (small integers and FuzzPairLevel0's specials), where
// the pair splits and eps. Inputs with a NaN stop at the summaries built
// in key order.
func FuzzCertificate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint16(5), uint8(0))
	f.Add([]byte("a certificate bounds the error at every rank"), uint16(20), uint8(3))
	epsilons := []float64{0.5, 0.2, 0.1, 0.05, 0.01}
	f.Fuzz(func(t *testing.T, raw []byte, split uint16, epsIdx uint8) {
		vals := make([]float32, len(raw))
		keyOrdered := false
		for i, c := range raw {
			if c%32 < uint8(len(pairFuzzSpecials)) {
				vals[i] = pairFuzzSpecials[c%32]
				keyOrdered = keyOrdered || vals[i] != vals[i]
			} else {
				vals[i] = float32(int(c%32) - 20)
			}
		}
		eps := epsilons[int(epsIdx)%len(epsilons)]
		checkCertificateOps(t, "fuzz", vals, int(split)%(len(vals)+1), eps, keyOrdered)
		if !keyOrdered {
			checkViewCertificates(t, "fuzz", vals, eps, uint64(split))
		}
	})
}

// partsCertificate is the largest certificate over what snapshotLocked
// merges: the held window with the sorted partial one, and every live
// bucket.
func partsCertificate(e *Estimator[float32]) float64 {
	e.core.Lock()
	defer e.core.Unlock()
	e.core.BarrierLocked()
	c := 0.0
	if partial := e.core.Partial(); len(e.held) > 0 || len(partial) > 0 {
		c = windowSummary(nil, e.held, sortedByKey(partial), e.eps).Certificate()
	}
	for _, b := range e.levels {
		if !b.empty() {
			c = max(c, b.part().Certificate())
		}
	}
	return c
}

// TestViewSpendsItsHeadroom: every view of a serial estimator, sync and
// async, over the matrix inputs with random Flushes, has its certificate
// as Eps, within eps, and within the 7eps/8 a cascade bucket may spend
// whenever its parts left the headroom rule at least eps/8.
func TestViewSpendsItsHeadroom(t *testing.T) {
	const eps = 0.01
	for i, in := range certInputs[:5] {
		for _, async := range []bool{false, true} {
			e := newCPU(eps, 0)
			if async {
				e.core.StartAsync()
			}
			data := in.gen(60*e.WindowSize(), uint64(i))
			rng := stream.NewRNG(uint64(i))
			applied := 0
			for fed := 0; fed < len(data); {
				n := min(1+rng.Intn(2*e.WindowSize()), len(data)-fed)
				if err := e.ProcessSlice(data[fed : fed+n]); err != nil {
					t.Fatal(err)
				}
				fed += n
				if rng.Intn(4) == 0 {
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				c := partsCertificate(e)
				v := e.Summary()
				if v.Eps != v.Certificate() || !(v.Eps <= eps) {
					t.Fatalf("%s after %d: view Eps %v, certificate %v, eps %v", in.name, fed, v.Eps, v.Certificate(), eps)
				}
				if e.cap-c-1/(2*float64(v.N)) >= eps/8 {
					applied++
					if !(v.Eps <= e.cap) {
						t.Fatalf("%s after %d: parts certify %v, view spent %v past 7eps/8", in.name, fed, c, v.Eps)
					}
				}
			}
			if applied == 0 {
				t.Fatalf("%s: the headroom rule never applied", in.name)
			}
			e.Close()
		}
	}
}

// TestViewBudgetFromKnownCertificate: a sorted stream of 15 pairs of
// windows leaves buckets at levels 0..3 whose values do not interleave, so
// every merge is exact and the largest part certificate is level 0's,
// floor(step/2) over the pair. The view is then the merge of the buckets
// pruned to exactly ceil(1/(2h)), h = 7eps/8 - c - 1/(2N).
func TestViewBudgetFromKnownCertificate(t *testing.T) {
	for _, eps := range []float64{0.01, 0.002} {
		e := newCPU(eps, 0)
		w := e.WindowSize()
		n := 15 * 2 * w
		if err := e.ProcessSlice(stream.Sorted(n)); err != nil {
			t.Fatal(err)
		}
		step := int64(eps * float64(2*w))
		c := float64(step/2) / float64(2*w)
		if got := partsCertificate(e); got != c {
			t.Fatalf("eps=%v: parts certify %v, want level 0's %v", eps, got, c)
		}
		b := int(math.Ceil(1 / (2 * (e.cap - c - 1/(2*float64(n))))))
		if b >= e.viewB {
			t.Fatalf("eps=%v: predicted budget %d is not below the a-priori one %d", eps, b, e.viewB)
		}
		var want *summary.Summary[float32]
		for _, lv := range e.levels {
			if want == nil {
				want = lv.entries()
			} else {
				want = summary.Merge(want, lv.entries())
			}
		}
		want = want.Prune(b)
		want.Eps = want.Certificate()
		got := e.Summary()
		if got.Size() != b+1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%v: view has %d entries, want the merge pruned to %d (%d entries)", eps, got.Size(), b, want.Size())
		}
	}
}
