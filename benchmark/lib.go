package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gpustream"
	"gpustream/internal/frequency"
	"gpustream/internal/quantile"
	"gpustream/internal/samplesort"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// The library workloads feed one stream of libValues float32 values through
// a fresh estimator per pass, in libChunk-value ProcessSlice calls, and query
// after every eighth of the stream. A pass is fixed work, so its state and
// accuracy are deterministic; the measured phase repeats passes until
// -seconds have gone by and every timing is a median over passes.
const (
	libValues        = 1 << 22
	libChunk         = 4096
	libQueries       = 8
	libSamples       = 1000 // stream values whose point frequency is checked
	libAnswerRepeats = 16
	setupRepeats     = 3
	advisoryWindow   = 1 << 16 // sliding-window size of the advisory pass
)

// libSpec is one library workload: the estimator spec document a user would
// write and the generator of its input.
type libSpec struct {
	name string
	spec string
	gen  func(n int, seed uint64) []float32
	zipf bool // runs the advisory passes when traced
}

func zipfStream(n int, seed uint64) []float32 {
	return stream.ZipfOf[float32](n, 1.1, n/100+10, seed)
}

const (
	freqSpec  = `{"family":"frequency","eps":0.001,"support":0.01,"backend":"samplesort"}`
	quantSpec = `{"family":"quantile","eps":0.001,"phis":[0.5,0.9,0.99],"backend":"samplesort"}`
)

var (
	libFreqZipf    = libSpec{"lib-freq-zipf", freqSpec, zipfStream, true}
	libFreqUniform = libSpec{"lib-freq-uniform", freqSpec, stream.UniformOf[float32], false}
	libQuantZipf   = libSpec{"lib-quant-zipf", quantSpec, zipfStream, true}
)

// spanSorter is a sorter.Sorter that records one span per Sort call. The
// traced passes hand it to the estimator packages' own constructors, which is
// how the sort layer is timed without editing the program.
type spanSorter struct {
	inner  sorter.Sorter[float32]
	rec    *recorder
	parent *int // the enclosing span, maintained by the pass
	op     int
	values int64
}

func (s *spanSorter) Sort(data []float32) {
	id := s.rec.begin("samplesort.Sort", *s.parent, s.op)
	s.inner.Sort(data)
	s.rec.end(id)
	s.values += int64(len(data))
}

func (s *spanSorter) Name() string { return s.inner.Name() }

// libRun is the state of one library run after set-up.
type libRun struct {
	w       libSpec
	spec    gpustream.Spec
	data    []float32
	truth   *sortedTruth
	samples []float32
	rec     *recorder
}

// libPass is what one pass over the stream measured.
type libPass struct {
	ingest     time.Duration // ProcessSlice + Flush time, queries excluded
	cpu        time.Duration // process CPU in the constructor, the ingest calls and the queries
	newSpec    time.Duration // constructor time
	chunkUs    []float64     // every ProcessSlice call
	visUs      []float64     // last ProcessSlice of an eighth + Flush
	queryUs    []float64     // Snapshot + answers
	state      []byte        // MarshalSnapshot of the final state
	stateBytes int           // summed MarshalSnapshot sizes at the query points
	heap       int64         // live heap the estimator held
	entries    int           // final snapshot size
	window     int           // the estimator's sort-window size
	stats      gpustream.Stats
	check      verdict

	bucketEntries  int   // quantile only: entries over all buckets
	buckets        int   // quantile only
	sortValues     int64 // traced passes only, like the allocation figures
	allocB, allocs uint64
}

// newEstimator builds the pass's estimator: through Engine.NewFromSpec as a
// user does, or — for a traced pass — through the internal constructor
// NewFromSpec dispatches to, with the span-recording sorter in place of the
// engine's. TestTracedEstimatorIsFaithful pins that both marshal to the
// same bytes.
func (r *libRun) newEstimator(srt *spanSorter) (gpustream.Estimator[float32], error) {
	if srt == nil {
		return gpustream.NewOf[float32](r.spec.Backend).NewFromSpec(r.spec)
	}
	switch r.spec.Family {
	case gpustream.FamilyFrequency:
		return frequency.NewEstimator[float32](r.spec.Eps, srt), nil
	case gpustream.FamilyQuantile:
		return quantile.NewEstimator[float32](r.spec.Eps, r.spec.Capacity, srt), nil
	}
	return nil, fmt.Errorf("no traced constructor for family %v", r.spec.Family)
}

// answer issues the queries one streamd GET makes on this family.
func (r *libRun) answer(view gpustream.Snapshot[float32]) bool {
	if r.spec.Family.AnswersQuantiles() {
		ok := true
		for _, phi := range r.spec.Phis {
			_, got := view.Quantile(phi)
			ok = ok && got
		}
		return ok
	}
	_, ok := view.HeavyHitters(r.spec.Support)
	return ok
}

// pass runs the stream through a fresh estimator. traced selects the
// span-recording variant; op labels its spans.
func (r *libRun) pass(op int, traced bool) (libPass, error) {
	var p libPass
	rec := r.rec
	if !traced {
		rec = nil
	}
	cur := rec.begin("pass", -1, op)
	root := cur
	var srt *spanSorter
	if traced {
		srt = &spanSorter{inner: samplesort.NewSorter[float32](), rec: rec, parent: &cur, op: op}
	}
	// within runs f inside a child span of the pass, keeping cur — the
	// sorter's parent — pointed at it.
	within := func(name string, f func()) {
		id := rec.begin(name, root, op)
		cur = id
		f()
		rec.end(id)
		cur = root
	}

	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	est, err := r.newEstimator(srt)
	if err != nil {
		return p, err
	}
	p.newSpec = time.Since(t0)

	snapshotSpan, answerSpan := r.spec.Family.String()+".Snapshot", r.spec.Family.String()+".answer"
	n := len(r.data)
	segment := n / libQueries
	var view gpustream.Snapshot[float32]
	for q := range libQueries {
		seg := r.data[q*segment : (q+1)*segment]
		for off := 0; off < len(seg); off += libChunk {
			chunk := seg[off:min(off+libChunk, len(seg))]
			last := off+libChunk >= len(seg)
			t0 := time.Now()
			within("pipeline.ProcessSlice", func() { err = est.ProcessSlice(chunk) })
			d := time.Since(t0)
			p.chunkUs = append(p.chunkUs, float64(d)/1e3)
			if last && err == nil {
				within("pipeline.Flush", func() { err = est.Flush() })
				d = time.Since(t0)
				p.visUs = append(p.visUs, float64(d)/1e3)
			}
			p.ingest += d
			if err != nil {
				return p, fmt.Errorf("ingest: %w", err)
			}
		}

		// One query: Snapshot on data newer than the last snapshot, then
		// the answers of one GET. The answers are repeated and averaged —
		// a single cold call of a few microseconds measured the
		// neighbours' cache traffic, not the code. The CPU clock stops
		// after the first set: a caller pays for one.
		ok := true
		answer := func() { ok = r.answer(view) && ok }
		t0 := time.Now()
		within(snapshotSpan, func() { view = est.Snapshot() })
		snapshot := time.Since(t0)
		t0 = time.Now()
		within(answerSpan, answer)
		answers := time.Since(t0)
		p.cpu += cpuTime() - cpu0
		t0 = time.Now()
		for range libAnswerRepeats - 1 {
			within(answerSpan, answer)
		}
		answers += time.Since(t0)
		p.queryUs = append(p.queryUs, float64(snapshot+answers/libAnswerRepeats)/1e3)
		p.check.op()
		if fed := int64((q + 1) * segment); !ok || view.Count() != fed {
			p.check.fail("query %d: ok=%v count=%d, want count %d", q, ok, view.Count(), fed)
		}
		within("wire.Marshal", func() { p.state, err = gpustream.MarshalSnapshot(view) })
		if err != nil {
			return p, fmt.Errorf("marshal: %w", err)
		}
		p.stateBytes += len(p.state)
		cpu0 = cpuTime()
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.allocB, p.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		p.sortValues = srt.values
	}

	// The oracle, like the state size above and the live heap below, is
	// outside the timed sections.
	within("oracle.check", func() { r.checkFinal(&p.check, view) })
	p.entries = view.Size()
	p.stats = est.Stats()
	if ws, ok := est.(interface{ WindowSize() int }); ok {
		p.window = ws.WindowSize()
	}
	if qe, ok := est.(*quantile.Estimator[float32]); ok {
		p.bucketEntries, p.buckets = qe.SummaryEntries(), qe.Buckets()
	}
	rec.end(root)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	if err := est.Close(); err != nil {
		return p, fmt.Errorf("close: %w", err)
	}
	est, view, srt = nil, nil, nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heap = int64(held) - int64(ms.HeapAlloc)
	return p, nil
}

// checkFinal checks the end-of-stream answers against exact ground truth: 99
// quantiles, or the heavy hitters plus libSamples point frequencies.
func (r *libRun) checkFinal(v *verdict, view gpustream.Snapshot[float32]) {
	if r.spec.Family.AnswersQuantiles() {
		for i := 1; i < 100; i++ {
			phi := float64(i) / 100
			got, ok := view.Quantile(phi)
			checkQuantile(v, r.truth, r.spec.Eps, phi, got, ok)
		}
		return
	}
	items, _ := view.HeavyHitters(r.spec.Support)
	hitters := make([]hitter, len(items))
	for i, it := range items {
		hitters[i] = hitter{it.Value, it.Freq}
	}
	checkHeavyHitters(v, r.truth, r.spec.Eps, r.spec.Support, hitters)
	for _, s := range r.samples {
		est, _ := view.Frequency(s)
		checkFrequency(v, r.truth, r.spec.Eps, s, est)
	}
}

// sampleValues picks k stream values at seed-determined positions.
func sampleValues(data []float32, k int, seed uint64) []float32 {
	rng := stream.NewRNG(seed ^ 0x5bd1e995)
	out := make([]float32, k)
	for i := range out {
		out[i] = data[rng.Intn(len(data))]
	}
	return out
}

func runLib(w libSpec, cfg runConfig) (*result, error) {
	probe := startHostProbe()
	spec, err := gpustream.ParseSpec([]byte(w.spec))
	if err != nil {
		return nil, err
	}
	r := &libRun{w: w, spec: spec}
	if cfg.Trace {
		r.rec = newRecorder()
	}
	n := libValues / cfg.Scale

	// Set-up: generate the stream from the seed and build ground truth.
	// Repeated so that setup_s is a median; the last repeat's products are
	// the ones used.
	var setups []float64
	for range setupRepeats {
		t0 := time.Now()
		id := r.rec.begin("stream.gen", -1, 0)
		r.data = w.gen(n, cfg.Seed)
		r.rec.end(id)
		r.truth = newSortedTruth(r.data)
		r.samples = sampleValues(r.data, libSamples, cfg.Seed)
		setups = append(setups, time.Since(t0).Seconds())
	}

	// One unmeasured pass fills caches, the window-buffer pool and the heap.
	warm, err := r.pass(0, false)
	if err != nil {
		return nil, err
	}
	total := warm.check

	// The measured phase. A traced run keeps half its time for the layer
	// replays.
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		budget /= 2
	}
	var plain, traced []libPass
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	err = measure(cfg, budget, func(op int, withSpans bool) error {
		p, err := r.pass(op, withSpans)
		total.merge(p.check)
		if withSpans {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// The state must be the same bytes on every pass — the workload is
	// deterministic — and a traced estimator must match an untraced one.
	for _, p := range slices.Concat(plain[1:], traced) {
		total.op()
		if !bytes.Equal(p.state, plain[0].state) {
			total.fail("final state differs between passes (%d vs %d bytes)", len(p.state), len(plain[0].state))
		}
	}

	cpuNs := func(ps []libPass) float64 {
		return median(each(ps, func(p libPass) float64 { return float64(p.cpu) / float64(n) }))
	}
	ingestS := each(plain, func(p libPass) float64 { return p.ingest.Seconds() })
	res := &result{Workload: w.name, Host: probe.finish(0)}
	res.EndToEnd = map[string]float64{
		"setup_s":             median(setups),
		"ingest_mvps":         float64(n) / median(ingestS) / 1e6,
		"cpu_ns_per_value":    cpuNs(plain),
		"write_p50_us":        median(each(plain, func(p libPass) float64 { return median(p.chunkUs) })),
		"visible_p50_us":      median(each(plain, func(p libPass) float64 { return median(p.visUs) })),
		"query_p50_us":        median(each(plain, func(p libPass) float64 { return median(p.queryUs) })),
		"state_kb_per_stream": float64(plain[0].stateBytes) / libQueries / 1024,
		"live_heap_mb":        median(each(plain, func(p libPass) float64 { return float64(p.heap) })) / (1 << 20),
	}
	var chunks, vis, queries []float64
	for _, p := range plain {
		chunks = append(chunks, p.chunkUs...)
		vis = append(vis, p.visUs...)
		queries = append(queries, p.queryUs...)
	}
	res.Detail = []string{
		fmt.Sprintf("passes %d of %d values (%d traced); eps_used %.4f", len(plain), n, len(traced), total.used),
		fmt.Sprintf("CPU ns/value by pass: %s", series(each(plain, func(p libPass) float64 { return float64(p.cpu) / float64(n) }))),
		fmt.Sprintf("ingest s/pass: %s", timing(ingestS)),
		fmt.Sprintf("write us:      %s", timing(chunks)),
		fmt.Sprintf("visible us:    %s", timing(vis)),
		fmt.Sprintf("query us:      %s", timing(queries)),
	}

	if cfg.Trace {
		res.PerLayer, err = r.layers(n, total.used, plain, traced, gcBefore)
		if err != nil {
			return nil, err
		}
		if err := finishTrace(res, cfg, cpuNs(traced)/cpuNs(plain), r.rec); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Problems = total.attempted, total.failed, total.problems
	return res, nil
}
