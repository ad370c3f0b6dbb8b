package gpustream

// Adaptive-execution pinning: (1) a pinned tuner is bit-identical to the
// static path on every family (the controller's knob changes are the ONLY
// way adaptivity can alter answers), (2) answers stay eps-correct under
// adversarial dynamic window/backend schedules (the metamorphic suite), and
// (3) the auto backend's controller tolerates concurrent readers while a
// writer drives retunes (run under -race in CI).

import (
	"bytes"
	"sync"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
)

// schedTuner is an adversarial pipeline.Tuner: at every window boundary it
// cycles the sorter through a fixed ring, the window through a fixed
// schedule, and the execution mode through a sync/async flip ring,
// regardless of measurements — the worst case a buggy controller could
// inflict within the legal knob envelope.
type schedTuner[T Value] struct {
	sorters []Sorter[T]
	windows []int
	asyncs  []pipeline.AsyncKnob
	i       int
}

func (s *schedTuner[T]) Retune(_ Stats, _ pipeline.Knobs[T]) (pipeline.Knobs[T], bool) {
	s.i++
	var next pipeline.Knobs[T]
	if len(s.sorters) > 0 {
		next.Sorter = s.sorters[s.i%len(s.sorters)]
	}
	if len(s.windows) > 0 {
		next.Window = s.windows[s.i%len(s.windows)]
	}
	if len(s.asyncs) > 0 {
		next.Async = s.asyncs[s.i%len(s.asyncs)]
	}
	return next, true
}

// asyncFlipRing commands an executor transition at nearly every window
// boundary: on, off, keep, on, off. Length 5 is coprime with the sorter
// ring (3) and the window schedules (4 and 6), so every combination of
// sorter x window x mode transition eventually occurs.
func asyncFlipRing() []pipeline.AsyncKnob {
	return []pipeline.AsyncKnob{
		pipeline.AsyncOn, pipeline.AsyncOff, pipeline.AsyncKeep,
		pipeline.AsyncOn, pipeline.AsyncOff,
	}
}

// sorterRing builds one fresh sorter per backend for a single pipeline to
// cycle through (instances are per-pipeline, never shared).
func sorterRing[T Value]() []Sorter[T] {
	return []Sorter[T]{
		newBackendSorter[T](BackendCPU),
		newBackendSorter[T](BackendGPU),
		newBackendSorter[T](BackendSampleSort),
	}
}

// windowSchedules are the dynamic-window shapes, all within [w0, 8*w0] so
// every scheduled window respects the construction floor the eps arguments
// need.
func windowSchedules(w0 int) map[string][]int {
	return map[string][]int{
		"grow":      {w0, 2 * w0, 4 * w0, 8 * w0},
		"shrink":    {8 * w0, 4 * w0, 2 * w0, w0},
		"oscillate": {w0, 8 * w0, w0, 4 * w0, 2 * w0, 8 * w0},
	}
}

// checkEps holds a view to its family's eps guarantee through the oracle:
// its quantiles at the deciles, or every frequency estimate it lists.
func checkEps(t *testing.T, name string, view Snapshot[float32], truth *oracle.Truth[float32], eps float64) {
	t.Helper()
	_, err := oracle.Quantiles(truth, view, oracle.Phis(10), eps)
	if _, ok := view.Quantile(0); !ok {
		_, sliding := view.(*SlidingFrequencySnapshot[float32])
		_, err = oracle.Frequencies(truth, view, eps, sliding)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestMetamorphicDynamicWindows drives every sorter-backed family through
// adversarial window/backend/concurrency schedules — grow, shrink,
// oscillate × sync and async construction × serial and K∈{1,4} sharded —
// and asserts the eps guarantees hold under every one. Every tuner also
// cycles the sync↔async execution knob at window boundaries, so executor
// start/stop transitions interleave with sorter swaps and window resizes
// regardless of the construction mode. The schedules never drop below the
// construction window, which is the documented legality envelope.
func TestMetamorphicDynamicWindows(t *testing.T) {
	const n = 40_000
	const eps = 0.01
	data := stream.Zipf(n, 1.2, n/100+5, 99)
	truth := oracle.New(data)
	const w = n / 5 // sliding-window span
	window := oracle.Suffix(data, w)

	for _, async := range []bool{false, true} {
		mode := map[bool]string{false: "sync", true: "async"}[async]
		for _, schedName := range []string{"grow", "shrink", "oscillate"} {
			t.Run(mode+"/"+schedName, func(t *testing.T) {
				eng := New(BackendSampleSort)
				var eopts []EstimatorOption
				pcfg := estimatorConfig{batch: 1 << 12}
				if async {
					eopts = append(eopts, WithAsyncIngestion())
					pcfg.async = AsyncOn
				}

				qe := eng.NewQuantileEstimator(eps, n, eopts...)
				_, qw0 := qe.Knobs()
				qe.SetTuner(&schedTuner[float32]{sorters: sorterRing[float32](), windows: windowSchedules(qw0)[schedName], asyncs: asyncFlipRing()})
				qe.ProcessSlice(data)
				qe.Close()
				checkEps(t, "quantile", qe.Snapshot(), truth, eps)

				fe := eng.NewFrequencyEstimator(eps, eopts...)
				_, fw0 := fe.Knobs()
				fe.SetTuner(&schedTuner[float32]{sorters: sorterRing[float32](), windows: windowSchedules(fw0)[schedName], asyncs: asyncFlipRing()})
				fe.ProcessSlice(data)
				fe.Close()
				checkEps(t, "frequency", fe.Snapshot(), truth, eps)

				// Sliding families: backend cycling only — the pane size is
				// the query's semantics, not a knob.
				sq := eng.NewSlidingQuantile(eps, w, eopts...)
				sq.SetTuner(&schedTuner[float32]{sorters: sorterRing[float32](), asyncs: asyncFlipRing()})
				sq.ProcessSlice(data)
				checkEps(t, "sliding-quantile", sq.Snapshot(), window, eps)
				sq.Close()

				sf := eng.NewSlidingFrequency(eps, w, eopts...)
				sf.SetTuner(&schedTuner[float32]{sorters: sorterRing[float32](), asyncs: asyncFlipRing()})
				sf.ProcessSlice(data)
				checkEps(t, "sliding-frequency", sf.Snapshot(), window, eps)
				sf.Close()

				for _, k := range []int{1, 4} {
					// The scripted tuner goes in through the typed build path:
					// the plan the public constructor would resolve, with its
					// per-shard tuner factory replaced.
					sched := windowSchedules(qw0)[schedName]
					scripted := eng.sharding(pcfg)
					scripted.NewTuner = func() pipeline.Tuner[float32] {
						return &schedTuner[float32]{sorters: sorterRing[float32](), windows: sched, asyncs: asyncFlipRing()}
					}
					pq := eng.newParallelQuantile(eps, n, k, scripted)
					pq.ProcessSlice(data)
					pq.Close()
					checkEps(t, "parallel-quantile", pq.Snapshot(), truth, eps)

					pf := eng.newParallelFrequency(eps, k, scripted)
					pf.ProcessSlice(data)
					pf.Close()
					checkEps(t, "parallel-frequency", pf.Snapshot(), truth, eps)
				}
			})
		}
	}
}

// scriptRescaler replays a fixed shard-count schedule: every `every`
// ingested values it commands the next count from steps — the reshard
// analogue of schedTuner, driving scale-ups and drain-and-fold scale-downs
// at scripted points of the stream regardless of measured throughput.
type scriptRescaler struct {
	mu    sync.Mutex
	steps []int
	every int64
	next  int64
	i     int
}

func (r *scriptRescaler) Observe(total int64, shards int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.i >= len(r.steps) || total < r.next {
		return 0
	}
	r.next = total + r.every
	cmd := r.steps[r.i]
	r.i++
	return cmd
}

func (r *scriptRescaler) executed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.i
}

// TestMetamorphicElasticReshard drives the parallel families through
// adversarial scripted reshard schedules — mid-stream scale-ups that spawn
// fresh shards, scale-downs that drain retiring shards and fold their
// snapshots into the retained accumulator, and oscillation between the two —
// under sync and async shards. Answers must stay within eps of the serial
// reference no matter when or how often the worker count moves, every
// scripted command must actually execute, and the final live shard count
// must match the last command.
func TestMetamorphicElasticReshard(t *testing.T) {
	const n = 40_000
	const eps = 0.01
	data := stream.Zipf(n, 1.2, n/100+5, 31)
	truth := oracle.New(data)

	schedules := []struct {
		name  string
		start int
		steps []int
	}{
		{"grow", 1, []int{2, 3, 4}},
		{"shrink", 4, []int{3, 2, 1}},
		{"oscillate", 2, []int{4, 1, 3, 1, 4, 2}},
	}
	const batch = 1 << 11 // small batches so the rescaler is consulted often

	for _, async := range []bool{false, true} {
		mode := map[bool]string{false: "sync", true: "async"}[async]
		for _, sc := range schedules {
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				eng := New(BackendSampleSort)
				// The scripted rescaler goes in through the typed build path.
				elastic := func(r *scriptRescaler) sharding[float32] {
					cfg := estimatorConfig{batch: batch}
					if async {
						cfg.async = AsyncOn
					}
					s := eng.sharding(cfg)
					s.Rescaler = r
					return s
				}

				qr := &scriptRescaler{steps: sc.steps, every: 2 * batch, next: 2 * batch}
				pq := eng.newParallelQuantile(eps, n, sc.start, elastic(qr))
				pq.ProcessSlice(data)
				pq.Close()
				checkEps(t, "elastic-quantile", pq.Snapshot(), truth, eps)
				if got := qr.executed(); got != len(sc.steps) {
					t.Fatalf("quantile: %d of %d reshard commands executed", got, len(sc.steps))
				}
				if got, want := pq.Shards(), sc.steps[len(sc.steps)-1]; got != want {
					t.Fatalf("quantile: final shard count %d, want %d", got, want)
				}
				if c := pq.Count(); c != int64(n) {
					t.Fatalf("quantile: Count=%d after resharding, want %d", c, n)
				}

				fr := &scriptRescaler{steps: sc.steps, every: 2 * batch, next: 2 * batch}
				pf := eng.newParallelFrequency(eps, sc.start, elastic(fr))
				pf.ProcessSlice(data)
				pf.Close()
				checkEps(t, "elastic-frequency", pf.Snapshot(), truth, eps)
				if got := fr.executed(); got != len(sc.steps) {
					t.Fatalf("frequency: %d of %d reshard commands executed", got, len(sc.steps))
				}
				if got, want := pf.Shards(), sc.steps[len(sc.steps)-1]; got != want {
					t.Fatalf("frequency: final shard count %d, want %d", got, want)
				}
			})
		}
	}
}

// TestPinnedTunerBitIdentical pins that an auto-backend estimator with a
// pinned (never-moves) tuner produces byte-identical marshaled snapshots to
// the static sample-sort path, across all seven families: running the
// retune hook must be answer-invisible unless a knob actually moves.
func TestPinnedTunerBitIdentical(t *testing.T) {
	const n = 30_000
	const eps = 0.005
	data := stream.Zipf(n, 1.2, 300, 77)
	static := New(BackendSampleSort)
	auto := New(BackendAuto)

	pin := func(name string, a, b Snapshot[float32]) {
		t.Helper()
		ab, err := MarshalSnapshot(a)
		if err != nil {
			t.Fatalf("%s: marshal static: %v", name, err)
		}
		bb, err := MarshalSnapshot(b)
		if err != nil {
			t.Fatalf("%s: marshal pinned: %v", name, err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("%s: pinned-tuner snapshot diverges from static (%d vs %d bytes)", name, len(ab), len(bb))
		}
	}
	run := func(e Estimator[float32]) Snapshot[float32] {
		if err := e.ProcessSlice(data); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot()
	}

	pin("frequency",
		run(static.NewFrequencyEstimator(eps)),
		run(auto.NewFrequencyEstimator(eps, WithPinnedTuning())))
	pin("quantile",
		run(static.NewQuantileEstimator(eps, n)),
		run(auto.NewQuantileEstimator(eps, n, WithPinnedTuning())))
	pin("sliding-frequency",
		run(static.NewSlidingFrequency(eps, n/5)),
		run(auto.NewSlidingFrequency(eps, n/5, WithPinnedTuning())))
	pin("sliding-quantile",
		run(static.NewSlidingQuantile(eps, n/5)),
		run(auto.NewSlidingQuantile(eps, n/5, WithPinnedTuning())))
	pin("parallel-frequency",
		run(static.NewParallelFrequencyEstimator(eps, 2, WithBatchSize(2048))),
		run(auto.NewParallelFrequencyEstimator(eps, 2, WithBatchSize(2048), WithPinnedShardTuning[float32]())))
	pin("parallel-quantile",
		run(static.NewParallelQuantileEstimator(eps, n, 2, WithBatchSize(2048))),
		run(auto.NewParallelQuantileEstimator(eps, n, 2, WithBatchSize(2048), WithPinnedShardTuning[float32]())))
	pin("frugal",
		run(static.NewFrugalEstimator()),
		run(auto.NewFrugalEstimator()))

	// Elastic axes pinned: requesting the concurrency knobs ("async":"auto",
	// elastic shards) and then pinning every axis must be answer-invisible
	// too. Serial families ask the controller to own the execution mode but
	// pin the tuner; parallel families carry a rescaler that never moves
	// plus pinned shard tuners. K=4 on both sides: construction budgets
	// match (eps/2 for K>1 static and for any elastic estimator), so the
	// comparison isolates the runtime machinery.
	pin("frequency-pinned-async",
		run(static.NewFrequencyEstimator(eps)),
		run(auto.newFrequency(eps, estimatorConfig{async: AsyncAuto, pinned: true})))
	pin("quantile-pinned-async",
		run(static.NewQuantileEstimator(eps, n)),
		run(auto.newQuantile(eps, n, estimatorConfig{async: AsyncAuto, pinned: true})))
	pin("sliding-quantile-pinned-async",
		run(static.NewSlidingQuantile(eps, n/5)),
		run(auto.newSlidingQuantile(eps, n/5, estimatorConfig{async: AsyncAuto, pinned: true})))
	pinnedElastic := func() sharding[float32] {
		s := auto.sharding(estimatorConfig{async: AsyncAuto, pinned: true, batch: 2048})
		s.Rescaler = keepRescaler{}
		return s
	}
	pin("parallel-frequency-pinned-elastic",
		run(static.NewParallelFrequencyEstimator(eps, 4, WithBatchSize(2048))),
		run(auto.newParallelFrequency(eps, 4, pinnedElastic())))
	pin("parallel-quantile-pinned-elastic",
		run(static.NewParallelQuantileEstimator(eps, n, 4, WithBatchSize(2048))),
		run(auto.newParallelQuantile(eps, n, 4, pinnedElastic())))
}

// keepRescaler is the pinned concurrency axis: an elastic estimator whose
// rescaler never commands a count must be byte-identical to the static
// configuration at the same shard count.
type keepRescaler struct{}

func (keepRescaler) Observe(int64, int) int { return 0 }

// TestAutoKnobsReported asserts the engine's telemetry surfaces the live
// backend/window selection and, for auto estimators, the controller's
// decision — the fields streammine -stats and /statsz print.
func TestAutoKnobsReported(t *testing.T) {
	data := stream.Zipf(60_000, 1.2, 500, 5)

	static := New(BackendSampleSort)
	se := static.NewQuantileEstimator(0.01, int64(len(data)))
	se.ProcessSlice(data)
	se.Close()
	ss := static.Stats()
	if len(ss) != 1 || ss[0].Backend != "samplesort" || ss[0].Window <= 0 {
		t.Fatalf("static stats: %+v", ss)
	}
	if ss[0].Tuning != nil {
		t.Fatalf("static estimator reports a tuning decision: %+v", ss[0].Tuning)
	}

	auto := New(BackendAuto)
	ae := auto.NewQuantileEstimator(0.01, int64(len(data)))
	ae.ProcessSlice(data)
	ae.Close()
	as := auto.Stats()
	if len(as) != 1 || as[0].Backend == "" || as[0].Window <= 0 {
		t.Fatalf("auto stats: %+v", as)
	}
	d := as[0].Tuning
	if d == nil {
		t.Fatalf("auto estimator reports no tuning decision")
	}
	if d.Phase != "probe" && d.Phase != "window" && d.Phase != "steady" {
		t.Fatalf("tuning phase %q", d.Phase)
	}
	if d.Switches == 0 || len(d.NsPerValue) == 0 {
		t.Fatalf("controller never probed: %+v", d)
	}

	// Parallel auto estimators report shard 0's controller.
	ap := auto.NewParallelFrequencyEstimator(0.01, 2, WithBatchSize(4096))
	ap.ProcessSlice(data)
	ap.Close()
	ps := auto.Stats()
	if got := ps[1]; got.Tuning == nil || got.Backend == "" {
		t.Fatalf("parallel auto stats: %+v", got)
	}
}

// TestAdaptiveControllerRace drives an auto-backend estimator with one
// writer while four readers hammer queries, snapshots, and engine stats —
// the controller's Decision/Retune interleaving. CI runs it under -race.
func TestAdaptiveControllerRace(t *testing.T) {
	eng := New(BackendAuto)
	qe := eng.NewQuantileEstimator(0.01, 200_000)
	data := stream.Zipf(200_000, 1.2, 2000, 13)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, es := range eng.Stats() {
					_ = es.Backend
					if es.Tuning != nil {
						_ = es.Tuning.Phase
					}
				}
				if s := qe.Snapshot(); s.Count() > 0 {
					if _, ok := s.Quantile(0.5); !ok {
						t.Error("non-empty snapshot refused a quantile")
						return
					}
				}
			}
		}()
	}
	for off := 0; off < len(data); off += 5000 {
		end := off + 5000
		if end > len(data) {
			end = len(data)
		}
		if err := qe.ProcessSlice(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	qe.Close()
	checkEps(t, "post-race quantile", qe.Snapshot(), oracle.New(data), 0.01)
}
