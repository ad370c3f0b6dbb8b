package quantile

import (
	"math"
	"slices"
	"testing"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// entries returns the bucket's entries as a Summary: a compact bucket's
// rebuilt by its reader, a pruned one's as they are.
func (b bucket[T]) entries() *summary.Summary[T] {
	if b.c != nil {
		return b.c.Summary()
	}
	return b.s
}

// eagerCascade is the cascade as it was before buckets were kept compact:
// every bucket a Summary, level 0 sampled from the pair's sorted
// concatenation, every combine MergeInto or MergePruneInto on entries.
// pairs and pruned track what each bucket was built from, so the test can
// tell which buckets must be compact.
type eagerCascade[T sorter.Value] struct {
	e      *Estimator[T] // for eps, the cap and the budget rules
	held   []T
	levels []*summary.Summary[T]
	pairs  []int
	pruned []bool
}

func (r *eagerCascade[T]) add(win []T) {
	if len(r.held) == 0 {
		r.held = slices.Clone(win)
		return
	}
	s, pairs, pruned := level0Reference(r.held, win, r.e.eps), 1, false
	r.held = nil
	for k := 0; ; k++ {
		if k == len(r.levels) {
			r.levels, r.pairs, r.pruned = append(r.levels, nil), append(r.pairs, 0), append(r.pruned, false)
		}
		old := r.levels[k]
		if old == nil {
			r.levels[k], r.pairs[k], r.pruned[k] = s, pairs, pruned
			return
		}
		r.levels[k] = nil
		budget := pruneBudget(r.e.cap - math.Max(old.Eps, s.Eps))
		pairs, pruned = pairs+r.pairs[k], pruned || r.pruned[k]
		if size := old.Size() + s.Size(); size-1 <= budget {
			s = summary.MergeInto(nil, old, s)
		} else {
			s, pruned = summary.MergePruneInto(nil, old, s, budget), true
		}
	}
}

// view is snapshotLocked over the eager cascade with partial, sorted,
// buffered: the same parts, certificate and budget rule.
func (r *eagerCascade[T]) view(n int64, partial []T) *summary.Summary[T] {
	var parts []summary.Part[T]
	c := 0.0
	if len(r.held) > 0 || len(partial) > 0 {
		p := level0Reference(r.held, partial, r.e.eps)
		parts, c = append(parts, p), p.Certificate()
	}
	for _, b := range r.levels {
		if b != nil {
			parts, c = append(parts, b), max(c, b.Certificate())
		}
	}
	if len(parts) == 0 {
		return nil
	}
	v := summary.MergePruneAll(nil, parts, r.e.viewBudget(c, n))
	v.Eps = v.Certificate()
	return v
}

// checkCompactCascade feeds windows, each sorted as the window sort leaves
// it, straight to an estimator's merge stage and to the eager cascade, and
// after every window requires each bucket and its certificate, and after
// every eighth the view, to be the eager cascade's bit for bit, and each
// bucket to be compact exactly when no prune built it and it holds at most
// summary.MaxRuns pairs. At the end a buffered partial window joins the
// view.
func checkCompactCascade[T sorter.Value](t *testing.T, eps float64, windows [][]T, partial []T) {
	t.Helper()
	e := newEstimator[T](eps)
	ref := &eagerCascade[T]{e: e}
	var n int64
	for w, win := range windows {
		sortByKey(win)
		e.mergeWindow(win)
		ref.add(win)
		n += int64(len(win))
		if len(e.levels) != len(ref.levels) {
			t.Fatalf("window %d: %d levels, eager %d", w, len(e.levels), len(ref.levels))
		}
		for k, b := range e.levels {
			want := ref.levels[k]
			if b.empty() != (want == nil) {
				t.Fatalf("window %d, level %d: empty %v, eager %v", w, k, b.empty(), want == nil)
			}
			if want == nil {
				continue
			}
			if compact := !ref.pruned[k] && ref.pairs[k] <= summary.MaxRuns; (b.c != nil) != compact {
				t.Fatalf("window %d, level %d: compact %v over %d pairs, pruned %v", w, k, b.c != nil, ref.pairs[k], ref.pruned[k])
			}
			if got := b.entries(); !sameLevel0(got, want) {
				t.Fatalf("window %d, level %d (%d pairs): bucket\n%+v\neager\n%+v", w, k, ref.pairs[k], *got, *want)
			}
			if got, want := e.certificate(k), want.Certificate(); got != want {
				t.Fatalf("window %d, level %d: certifies %v, eager %v", w, k, got, want)
			}
		}
		if w%8 == 7 {
			checkView(t, e, ref.view(n, nil), w)
		}
	}
	if err := e.ProcessSlice(partial); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(partial)
	sortByKey(sorted)
	checkView(t, e, ref.view(n+int64(len(partial)), sorted), len(windows))
}

func checkView[T sorter.Value](t *testing.T, e *Estimator[T], want *summary.Summary[T], w int) {
	t.Helper()
	got := e.Summary()
	if (got == nil) != (want == nil) || got != nil && !sameLevel0(got, want) {
		t.Fatalf("after window %d: view\n%+v\neager\n%+v", w, got, want)
	}
}

// keySorter sorts in the key-radix sort's order.
type keySorter[T sorter.Value] struct{}

func (keySorter[T]) Sort(data []T) { sortByKey(data) }
func (keySorter[T]) Name() string  { return "key" }

// newEstimator is an estimator at any value type whose window no schedule
// here fills, so ProcessSlice only buffers.
func newEstimator[T sorter.Value](eps float64) *Estimator[T] {
	return NewEstimator[T](eps, 0, keySorter[T]{}, pipeline.WithWindow(1<<20))
}

// compactValue decodes a fuzz byte to a value of T: for the floats ±0,
// ±Inf, NaN and small integers; for the integers small ones and a few with
// the top bit set.
func compactValue[T sorter.Value](c byte) T {
	var z T
	switch any(z).(type) {
	case float32, float64:
		switch c % 16 {
		case 0:
			return T(math.Copysign(0, -1))
		case 1:
			return T(math.NaN())
		case 2:
			return T(math.Inf(1))
		case 3:
			return T(math.Inf(-1))
		}
		return T(float64(c%16) - 9)
	}
	if c%16 == 15 {
		return T(^uint64(0) - uint64(c))
	}
	return T(c % 16)
}

var compactEps = []float64{0.1, 0.02, 0.002}

// FuzzCompactBucket holds the compact cascade to the eager one
// (checkCompactCascade). The fuzzer picks the values (signed zeros, NaNs
// and infinities among duplicates), each window's size — short ones keep
// every rank, as a Flush-sealed window does, and sizes that change from
// window to window give pairs of mixed N and step, as a pinned tuner's
// schedule does — how many windows (at most 1,100 and 2^15 values), eps,
// and the value type: float32, float64 or uint64. 1-value windows at eps
// 0.002 merge 512 pairs whole, past summary.MaxRuns, so the cascade falls
// back to a Summary.
func FuzzCompactBucket(f *testing.F) {
	f.Add([]byte("signed zeros, NaNs and duplicates"), []byte{40, 3, 200, 1, 77}, uint16(40), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 16, 17, 5, 6}, []byte{0}, uint16(1030), uint8(2), uint8(0))
	f.Add([]byte{15, 31, 2, 9}, []byte{255, 0, 128}, uint16(70), uint8(1), uint8(2))
	f.Add([]byte{1, 2, 3}, []byte{50}, uint16(64), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw, sizes []byte, windows uint16, epsIdx, typ uint8) {
		if len(raw) == 0 || len(sizes) == 0 {
			return
		}
		eps := compactEps[int(epsIdx)%len(compactEps)]
		count := int(windows) % 1100
		switch typ % 3 {
		case 0:
			runCompactFuzz[float32](t, eps, raw, sizes, count)
		case 1:
			runCompactFuzz[float64](t, eps, raw, sizes, count)
		default:
			runCompactFuzz[uint64](t, eps, raw, sizes, count)
		}
	})
}

func runCompactFuzz[T sorter.Value](t *testing.T, eps float64, raw, sizes []byte, count int) {
	next := 0
	draw := func(n int) []T {
		out := make([]T, n)
		for i := range out {
			out[i] = compactValue[T](raw[next%len(raw)] + byte(next/len(raw)))
			next++
		}
		return out
	}
	var windows [][]T
	for i, total := 0, 0; i < count; i++ {
		size := 1 + int(sizes[i%len(sizes)])
		if total += size; total > 1<<15 {
			break
		}
		windows = append(windows, draw(size))
	}
	checkCompactCascade(t, eps, windows, draw(int(sizes[0])%17))
}

// TestCompactBucketMatchesEager runs the fuzz seeds' shapes at every eps
// and value type, the fallback past summary.MaxRuns included.
func TestCompactBucketMatchesEager(t *testing.T) {
	for _, eps := range compactEps {
		runCompactFuzz[float32](t, eps, []byte("signed zeros, NaNs and duplicates"), []byte{40, 3, 200, 1, 77}, 80)
		runCompactFuzz[float64](t, eps, []byte{15, 31, 2, 9}, []byte{255, 0, 128}, 70)
		runCompactFuzz[uint64](t, eps, []byte{1, 2, 3, 15}, []byte{50, 7}, 64)
	}
	runCompactFuzz[float32](t, 0.002, []byte{0, 1, 16, 17, 5, 6}, []byte{0}, 1030)
}
