package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gpustream"
)

func TestPercentiles(t *testing.T) {
	var s []float64
	for i := 1; i <= 10; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(s)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles(s[:5])
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(s); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		label string
		value float64
	}{
		{99, "", 0},
		{100, "p90", 90},
		{199, "p90", 180},
		{200, "p95", 190},
		{1000, "p99", 990},
		{10000, "p99.9", 9990},
		{100000, "p99.99", 99990},
	} {
		label, value, ok := tailPercentile(sample(c.n))
		if ok != (c.label != "") || label != c.label || value != c.value {
			t.Errorf("tailPercentile(n=%d) = %q %g %v, want %q %g", c.n, label, value, ok, c.label, c.value)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.child", Start: 15, End: 20, Parent: 1},
		{Name: "b", Start: 50, End: 70, Parent: 0},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
	}
	want := []int64{100 - 30 - 20 - 10, 30 - 5, 5, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// The subtree's self times exceed the root by the 20 ns "late" ran past it.
	if gap := rootSelfGap(spans); math.Abs(gap-0.20) > 1e-12 {
		t.Errorf("rootSelfGap = %g, want 0.20", gap)
	}
	if gap := rootSelfGap(spans[:4]); gap != 0 {
		t.Errorf("rootSelfGap of nested spans = %g, want 0", gap)
	}

	// Overlapping children are covered once.
	overlap := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "x", Start: 10, End: 40, Parent: 0},
		{Name: "y", Start: 30, End: 60, Parent: 0},
	}
	if got := selfTimes(overlap)[0]; got != 50 {
		t.Errorf("self time under overlapping children = %d, want 50", got)
	}

	// A nil recorder is tracing off.
	var rec *recorder
	rec.end(rec.begin("nothing", -1, 0))
	if rec.snapshot() != nil {
		t.Error("nil recorder recorded spans")
	}
}

// The oracle must reject hand-built wrong answers and accept right ones, in
// both of its forms.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	// 1000 values: 0 occurs 500 times, 1 occurs 300, and 2..201 once each.
	var data []float32
	for range 500 {
		data = append(data, 0)
	}
	for range 300 {
		data = append(data, 1)
	}
	for v := 2; v < 202; v++ {
		data = append(data, float32(v))
	}
	counts := &countTruth{counts: make([]int32, 256)}
	for _, v := range data {
		counts.add(v)
	}
	counts.seal()
	const eps = 0.01 // eps*N = 10

	for name, truth := range map[string]truth{"sorted": newSortedTruth(data), "counts": counts} {
		if lo, hi := truth.rankRange(1); lo != 501 || hi != 800 {
			t.Errorf("%s: rankRange(1) = [%d, %d], want [501, 800]", name, lo, hi)
		}
		if lo, hi := truth.rankRange(1.5); lo != 801 || hi != 800 {
			t.Errorf("%s: rankRange(1.5) = [%d, %d], want the empty [801, 800]", name, lo, hi)
		}

		var v verdict
		checkQuantile(&v, truth, eps, 0.5, 0, true)   // rank 500 is a 0: exact
		checkQuantile(&v, truth, eps, 0.5, 1, true)   // a 1 first has rank 501: off by 1
		checkQuantile(&v, truth, eps, 0.85, 58, true) // rank 850 is 51; 58 has rank 857
		if v.failed != 0 || math.Abs(v.used-0.7) > 1e-9 {
			t.Errorf("%s: right quantiles: failed=%d used=%g, want 0 failed and 0.7 used", name, v.failed, v.used)
		}
		checkQuantile(&v, truth, eps, 0.85, 70, true) // rank 869: 19 off, beyond eps*N
		checkQuantile(&v, truth, eps, 0.5, 0, false)  // no answer at all
		if v.failed != 2 {
			t.Errorf("%s: wrong quantiles: failed=%d, want 2", name, v.failed)
		}

		v = verdict{}
		checkHeavyHitters(&v, truth, eps, 0.25, []hitter{{0, 495}, {1, 300}})
		if v.failed != 0 || v.used != 0.5 {
			t.Errorf("%s: right heavy hitters: failed=%d used=%g, want 0 failed and 0.5 used", name, v.failed, v.used)
		}
		checkHeavyHitters(&v, truth, eps, 0.25, []hitter{{0, 500}}) // 1 is missing
		if v.failed != 1 {
			t.Errorf("%s: false negative: failed=%d, want 1", name, v.failed)
		}
		checkFrequency(&v, truth, eps, 1, 301) // over-count
		checkFrequency(&v, truth, eps, 1, 289) // undercounts by 11 > eps*N
		if v.failed != 3 {
			t.Errorf("%s: wrong frequencies: failed=%d, want 3", name, v.failed)
		}
	}
}

func tinyRun(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	res, err := w.Run(runConfig{Seed: seed, Seconds: 0, Trace: trace, Scale: 64, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Problems)
	}
	return res
}

// A 1/64-scale run of every workload emits every named metric, finite — and,
// for the end-to-end ones, never 0. A traced run computes both tables; it
// reports the per-layer one.
func TestSmokeAllWorkloads(t *testing.T) {
	if res := tinyRun(t, "lib-freq-uniform", 1, false); res.PerLayer != nil {
		t.Errorf("untraced run reported a per-layer table")
	}
	for _, w := range workloads {
		res := tinyRun(t, w.Name, 1, true)
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive finite number", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := res.PerLayer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v), want a finite number", w.Name, m.Name, v, ok)
			}
		}
		if used := res.PerLayer["oracle.eps_used"]; used < 0 || used > 1 {
			t.Errorf("%s: eps_used = %g, want in [0, 1]", w.Name, used)
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: per-layer table has %d metrics, the registry %d", w.Name, len(res.PerLayer), len(perLayer))
		}
	}
}

// The same seed gives the same accuracy, state and operation counts; another
// seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"lib-quant-zipf", "svc-mixed-bin"} {
		a, b, c := tinyRun(t, name, 7, true), tinyRun(t, name, 7, true), tinyRun(t, name, 8, true)
		if a.EndToEnd["state_kb_per_stream"] != b.EndToEnd["state_kb_per_stream"] {
			t.Errorf("%s: state_kb_per_stream differs on one seed: %v vs %v", name, a.EndToEnd["state_kb_per_stream"], b.EndToEnd["state_kb_per_stream"])
		}
		same := true
		for _, m := range []string{"oracle.eps_used", "pipeline.windows", "pipeline.merge_ops", "pipeline.compress_ops"} {
			if a.PerLayer[m] != b.PerLayer[m] {
				t.Errorf("%s: %s differs on one seed: %v vs %v", name, m, a.PerLayer[m], b.PerLayer[m])
			}
			same = same && a.PerLayer[m] == c.PerLayer[m]
		}
		if same && a.EndToEnd["state_kb_per_stream"] == c.EndToEnd["state_kb_per_stream"] {
			t.Errorf("%s: seeds 7 and 8 gave identical accuracy, state and operation counts", name)
		}
	}
}

// The traced passes build their estimator from the internal constructor with
// the span-recording sorter. It must end in the same bytes as the estimator
// Engine.NewFromSpec builds, or the per-layer table describes another program.
func TestTracedEstimatorIsFaithful(t *testing.T) {
	for _, w := range []libSpec{libFreqZipf, libFreqUniform, libQuantZipf} {
		spec, err := gpustream.ParseSpec([]byte(w.spec))
		if err != nil {
			t.Fatal(err)
		}
		r := &libRun{w: w, spec: spec, rec: newRecorder()}
		r.data = w.gen(libValues/64, 3)
		r.truth = newSortedTruth(r.data)
		r.samples = sampleValues(r.data, libSamples, 3)
		plain, err := r.pass(1, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := r.pass(2, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.state, traced.state) {
			t.Errorf("%s: traced estimator marshals to %d bytes that differ from NewFromSpec's %d", w.name, len(traced.state), len(plain.state))
		}
		if traced.sortValues < int64(len(r.data)) {
			t.Errorf("%s: span sorter saw %d values of %d", w.name, traced.sortValues, len(r.data))
		}
		if plain.check.failed+traced.check.failed != 0 {
			t.Errorf("%s: oracle failures: %v %v", w.name, plain.check.problems, traced.check.problems)
		}
	}
}

// BENCHMARK.json is the driver's copy of the registry in metrics.go:
// `go run ./benchmark -manifest > BENCHMARK.json` after changing either.
func TestManifestMatchesRegistry(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, manifestJSON()) {
		t.Error("BENCHMARK.json differs from what -manifest prints")
	}
}

// The registry must stay inside the limits the driver puts on BENCHMARK.json.
func TestRegistryWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2..8, ..16, ..128", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: bad or repeated name, unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		seen[m.Name] = true
	}
	setup := endToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; it is %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %g must be in (0, 0.25] and no larger than setup_s's %g", m.Name, m.Bound, setup.Bound)
		}
	}
	if size := len(manifestJSON()); size > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, over the driver's 64 KiB", size)
	}
}
