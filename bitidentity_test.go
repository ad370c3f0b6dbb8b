package gpustream

// Bit identity: the pipeline answers from the stream alone. Every sort is
// exact, so how the stream is chunked, whether the sort overlaps the merge
// (the paper's §4.2 co-processing), whether one shard stands in for the
// serial estimator and whether a tuner that never moves a knob is installed
// change only the cost. Each row of pairs builds one family under two
// configurations, feeds both the same stream, closes both and requires
// byte-equal marshaled snapshots, equal deterministic Stats counters and
// equal view answers. Each test below runs the rows named after it.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpustream/internal/stream"
)

// build is one side of a pair: how the estimator is constructed and how the
// stream reaches it.
type build struct {
	backend Backend
	cfg     estimatorConfig // async, pinned and the parallel hand-off batch
	shards  int             // parallel families: the worker count; 0 builds the serial sibling
	keep    bool            // parallel families: a rescaler that never moves
	plan    plan
}

// plan is how the stream is cut into ingest calls.
type plan int

const (
	whole  plan = iota // one ProcessSlice call
	ones               // one Process call per value
	random             // ProcessSlice calls of random length up to 2,500
)

func (p plan) String() string { return [...]string{"whole", "ones", "random"}[p] }

// pair is one row: family fam under a and under b, compared at the element
// type compare is instantiated with.
type pair struct {
	name    string // "<test>" or "<test>/<group>"; the row's subtest is fam's name
	compare func(*testing.T, pair)
	fam     Family
	a, b    build
}

var (
	serialFamilies   = []Family{FamilyFrequency, FamilyQuantile, FamilySlidingFrequency, FamilySlidingQuantile}
	parallelFamilies = []Family{FamilyParallelFrequency, FamilyParallelQuantile}
	sorterFamilies   = slices.Concat(serialFamilies, parallelFamilies)
	allFamilies      = append(slices.Clone(sorterFamilies), FamilyFrugal)
)

var pairs = func() []pair {
	var rows []pair
	add := func(name string, compare func(*testing.T, pair), fams []Family, a, b build) {
		for _, f := range fams {
			rows = append(rows, pair{name, compare, f, a, b})
		}
	}
	f32 := comparePair[float32]
	// Rerun: one configuration twice, async and sharded.
	rerun := build{backend: BackendGPU, shards: 4, cfg: estimatorConfig{async: AsyncOn, batch: 1024}}
	add("TestDeterministicAcrossRuns", f32, allFamilies, rerun, rerun)

	// Chunking: one value per call, or calls of random length, against the
	// whole stream in one call. Parallel families run at K = 1, where the
	// shard a value lands on does not depend on the calls.
	cpu := build{backend: BackendCPU}
	k1 := build{backend: BackendCPU, shards: 1, cfg: estimatorConfig{batch: 1000}}
	for _, p := range []plan{ones, random} {
		cut, k1cut := cpu, k1
		cut.plan, k1cut.plan = p, p
		add("TestMetamorphicFrequency/"+p.String(), f32, []Family{FamilyFrequency}, cpu, cut)
		add("TestMetamorphicQuantile/"+p.String(), f32, []Family{FamilyQuantile}, cpu, cut)
		add("TestMetamorphicSlidingFrequency/"+p.String(), f32, []Family{FamilySlidingFrequency}, cpu, cut)
		add("TestMetamorphicSlidingQuantile/"+p.String(), f32, []Family{FamilySlidingQuantile}, cpu, cut)
		add("TestMetamorphicParallelK1/"+p.String(), f32, parallelFamilies, k1, k1cut)
		add("TestMetamorphicFrugal/"+p.String(), f32, []Family{FamilyFrugal}, cpu, cut)
	}
	k1cut := k1
	k1cut.plan = random
	add("TestMetamorphicTypedUint64/random", comparePair[uint64], sorterFamilies, k1, k1cut)
	add("TestMetamorphicTypedFloat64/random", comparePair[float64], sorterFamilies, k1, k1cut)
	// Chunking and the staged executor at once: async in random calls
	// against sync in one call at K = 1, and against sync in the same calls
	// at K = 4, where the calls decide which shard a value lands on.
	k1async := k1cut
	k1async.cfg.async = AsyncOn
	add("TestMetamorphicAsyncMatchesSync/random", f32, sorterFamilies, k1, k1async)
	k4cut := build{backend: BackendCPU, shards: 4, cfg: estimatorConfig{batch: 1000}, plan: random}
	k4async := k4cut
	k4async.cfg.async = AsyncOn
	add("TestMetamorphicAsyncMatchesSync/random-K=4", f32, parallelFamilies, k4cut, k4async)

	// Async: the staged executor against the synchronous one, on the GPU
	// simulator (whose per-sort state the sort stage must keep to one
	// window) and on a host-native sorter.
	for _, backend := range []Backend{BackendGPU, BackendSampleSort} {
		sync := build{backend: backend}
		async := build{backend: backend, cfg: estimatorConfig{async: AsyncOn}}
		add("TestAsyncBitIdenticalFrequency/"+backend.String(), f32, []Family{FamilyFrequency}, sync, async)
		add("TestAsyncBitIdenticalQuantile/"+backend.String(), f32, []Family{FamilyQuantile}, sync, async)
		add("TestAsyncBitIdenticalSlidingFrequency/"+backend.String(), f32, []Family{FamilySlidingFrequency}, sync, async)
		add("TestAsyncBitIdenticalSlidingQuantile/"+backend.String(), f32, []Family{FamilySlidingQuantile}, sync, async)
		for _, k := range []int{1, 4} {
			sync := build{backend: backend, shards: k, cfg: estimatorConfig{batch: 1024}}
			async := sync
			async.cfg.async = AsyncOn
			add(fmt.Sprintf("TestAsyncBitIdenticalParallel/K=%d-%v", k, backend), f32, parallelFamilies, sync, async)
		}
	}

	// K = 1: one shard against the serial sibling, at every integer and
	// floating-point width.
	for _, c := range []struct {
		group   string
		compare func(*testing.T, pair)
		backend Backend
	}{
		{"float32", f32, BackendCPU},
		{"float32-samplesort", f32, BackendSampleSort},
		{"float64", comparePair[float64], BackendCPU},
		{"uint32", comparePair[uint32], BackendCPU},
		{"uint64", comparePair[uint64], BackendSampleSort},
		{"int64", comparePair[int64], BackendCPU},
	} {
		k1 := build{backend: c.backend, shards: 1, cfg: estimatorConfig{batch: 1024}}
		add("TestShardK1BitIdenticalAcrossTypes/"+c.group, c.compare, parallelFamilies, k1, build{backend: c.backend})
	}
	add("TestParallelSingleShardMatchesSerialAPI", f32, parallelFamilies,
		build{backend: BackendCPU, shards: 1}, build{backend: BackendCPU})

	// Pinned: an auto engine whose tuners never move against the static
	// sample-sort path. The async rows also hand the execution mode to the
	// controller and the elastic rows the shard count, pinned too; those run
	// K = 4 on both sides, where the static eps budget is an elastic one's.
	static := build{shards: 2, cfg: estimatorConfig{batch: 2048}}
	pinned := build{backend: BackendAuto, shards: 2, cfg: estimatorConfig{batch: 2048, pinned: true}}
	add("TestPinnedTunerBitIdentical/pinned", f32, allFamilies, static, pinned)
	add("TestPinnedTunerBitIdentical/pinned-async", f32, serialFamilies,
		build{}, build{backend: BackendAuto, cfg: estimatorConfig{async: AsyncAuto, pinned: true}})
	add("TestPinnedTunerBitIdentical/pinned-elastic", f32, parallelFamilies,
		build{shards: 4, cfg: estimatorConfig{batch: 2048}},
		build{backend: BackendAuto, shards: 4, keep: true, cfg: estimatorConfig{async: AsyncAuto, pinned: true, batch: 2048}})
	return rows
}()

func TestDeterministicAcrossRuns(t *testing.T)             { runPairs(t) }
func TestMetamorphicFrequency(t *testing.T)                { runPairs(t) }
func TestMetamorphicQuantile(t *testing.T)                 { runPairs(t) }
func TestMetamorphicSlidingFrequency(t *testing.T)         { runPairs(t) }
func TestMetamorphicSlidingQuantile(t *testing.T)          { runPairs(t) }
func TestMetamorphicParallelK1(t *testing.T)               { runPairs(t) }
func TestMetamorphicFrugal(t *testing.T)                   { runPairs(t) }
func TestMetamorphicTypedUint64(t *testing.T)              { runPairs(t) }
func TestMetamorphicTypedFloat64(t *testing.T)             { runPairs(t) }
func TestMetamorphicAsyncMatchesSync(t *testing.T)         { runPairs(t) }
func TestAsyncBitIdenticalFrequency(t *testing.T)          { runPairs(t) }
func TestAsyncBitIdenticalQuantile(t *testing.T)           { runPairs(t) }
func TestAsyncBitIdenticalSlidingFrequency(t *testing.T)   { runPairs(t) }
func TestAsyncBitIdenticalSlidingQuantile(t *testing.T)    { runPairs(t) }
func TestAsyncBitIdenticalParallel(t *testing.T)           { runPairs(t) }
func TestShardK1BitIdenticalAcrossTypes(t *testing.T)      { runPairs(t) }
func TestParallelSingleShardMatchesSerialAPI(t *testing.T) { runPairs(t) }
func TestPinnedTunerBitIdentical(t *testing.T)             { runPairs(t) }

// runPairs runs the rows named after the calling test as subtests
// <group>/<family>, or <family> for rows with no group.
func runPairs(t *testing.T) {
	ran := false
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].name == pairs[i].name {
			j++
		}
		rows := pairs[i:j]
		i = j
		test, group, _ := strings.Cut(rows[0].name, "/")
		if test != t.Name() {
			continue
		}
		ran = true
		run := func(t *testing.T) {
			for _, p := range rows {
				t.Run(p.fam.String(), func(t *testing.T) { p.compare(t, p) })
			}
		}
		if group == "" {
			run(t)
		} else {
			t.Run(group, run)
		}
	}
	if !ran {
		t.Fatal("no row names this test")
	}
}

// comparePair is the one comparator: both sides' marshaled snapshots,
// operation counters and answers must be equal.
func comparePair[T Value](t *testing.T, p pair) {
	data := pairStream[T]()
	snapA, statsA := runSide(t, p.fam, p.a, data)
	snapB, statsB := runSide(t, p.fam, p.b, data)
	if a, b := mustMarshal(t, snapA), mustMarshal(t, snapB); !bytes.Equal(a, b) {
		t.Fatalf("marshaled snapshots differ (%d vs %d bytes)", len(a), len(b))
	}
	if a, b := counters(statsA), counters(statsB); a != b {
		t.Fatalf("counters differ:\n  a: %+v\n  b: %+v", a, b)
	}
	if a, b := answers(snapA, data[:16]), answers(snapB, data[:16]); !reflect.DeepEqual(a, b) {
		t.Fatalf("answers differ:\n  a: %+v\n  b: %+v", a, b)
	}
}

// answers is what a view says about the stream: its length and size, its
// quantiles, its heavy hitters and its point estimates of probes.
func answers[T Value](v Snapshot[T], probes []T) any {
	type answer struct {
		Count     int64
		Size      int
		Quantiles []T
		Heavy     []Item[T]
		Points    []int64
	}
	a := answer{Count: v.Count(), Size: v.Size()}
	for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		q, _ := v.Quantile(phi)
		a.Quantiles = append(a.Quantiles, q)
	}
	a.Heavy, _ = v.HeavyHitters(0.01)
	for _, x := range probes {
		f, _ := v.Frequency(x)
		a.Points = append(a.Points, f)
	}
	return a
}

// counters keeps Stats' deterministic operation counts and drops the
// measured times.
func counters(s Stats) Stats {
	return Stats{Windows: s.Windows, SortedValues: s.SortedValues, MergeOps: s.MergeOps, CompressOps: s.CompressOps}
}

// pairStream is the stream every row ingests: 30,000 zipf values, shifted
// beyond float32's exact range at uint64 and crossing zero at int64.
func pairStream[T Value]() []T {
	const n = 30_000
	data := stream.ZipfOf[T](n, 1.2, n/50+10, 99)
	switch d := any(data).(type) {
	case []uint64:
		for i := range d {
			d[i] = d[i]<<40 | 0xBEEF
		}
	case []int64:
		for i := 1; i < len(d); i += 2 {
			d[i] = -d[i]
		}
	}
	return data
}

// runSide builds fam under c, feeds it data as c's plan cuts it, closes it
// and returns its view and counters. Sliding families watch the last fifth
// of the stream.
func runSide[T Value](t *testing.T, fam Family, c build, data []T) (Snapshot[T], Stats) {
	t.Helper()
	const eps = 0.005
	eng := NewOf[T](c.backend)
	if fam.Parallel() && c.shards == 0 {
		fam -= FamilyParallelFrequency - FamilyFrequency
	}
	var est Estimator[T]
	switch fam {
	case FamilyFrequency:
		est = eng.newFrequency(eps, c.cfg)
	case FamilyQuantile:
		est = eng.newQuantile(eps, c.cfg)
	case FamilySlidingFrequency:
		est = eng.newSlidingFrequency(eps, len(data)/5, c.cfg)
	case FamilySlidingQuantile:
		est = eng.newSlidingQuantile(eps, len(data)/5, c.cfg)
	case FamilyFrugal:
		est = eng.NewFrugalEstimator()
	default:
		s := eng.sharding(c.cfg)
		if c.keep {
			s.Rescaler = keepRescaler{}
		}
		if fam == FamilyParallelFrequency {
			est = eng.newParallelFrequency(eps, c.shards, s)
		} else {
			est = eng.newParallelQuantile(eps, c.shards, s)
		}
	}
	off := 0
	for _, n := range c.plan.chunks(len(data)) {
		var err error
		if n == 1 {
			err = est.Process(data[off])
		} else {
			err = est.ProcessSlice(data[off : off+n])
		}
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := est.Close(); err != nil {
		t.Fatal(err)
	}
	return est.Snapshot(), est.Stats()
}

// chunks returns the call lengths p cuts a stream of n values into.
func (p plan) chunks(n int) []int {
	switch p {
	case ones:
		return slices.Repeat([]int{1}, n)
	case random:
		rng := stream.NewRNG(7)
		var out []int
		for left := n; left > 0; left -= out[len(out)-1] {
			out = append(out, min(1+rng.Intn(2500), left))
		}
		return out
	}
	return []int{n}
}

// keepRescaler is the pinned shard-count axis: it never commands a count.
type keepRescaler struct{}

func (keepRescaler) Observe(int64, int) int { return 0 }
